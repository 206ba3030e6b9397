package docdb

// MaxChainBytes exposes the chain byte bound to the external test package,
// whose oracle applies it.
const MaxChainBytes = maxChainBytes
