package main

import (
	"slices"
	"strings"
)

// hashpurity: the paper's bit-identical recovery claim (BA/PUA/MPA chains
// replayed on any node must reproduce the exact parameter bytes and their
// digests) dies the moment anything nondeterministic leaks into a digest or
// serialization path. PR 2/PR 5 assert this dynamically — same state dict,
// same bytes, same Merkle root — but a test can only catch the nondeterminism
// it happens to exercise. hashpurity enforces it statically: starting from
// the digest/serialization entry points (tensor.Digest*, nn's WriteTo*/Hash*,
// all of merkle, core.saveStateDict), it walks the call graph and flags every
// reachable read of a nondeterminism source: the wall clock, math/rand, the
// process environment, pointer formatting (%p), and order-randomized map
// iteration.
//
// Dispatch through standard-library interfaces is not followed (see
// callgraph.go): the bytes fed to an io.Writer are fixed by the caller, so
// the writer's own behavior (throttling sleeps, timing reads) cannot change
// what is hashed.
const nameHashPurity = "hashpurity"

var hashPurityAnalyzer = &Analyzer{
	Name: nameHashPurity,
	Doc:  "nondeterminism source (clock, rand, env, %p, map order) reachable from a digest/serialization entry point",
	Run:  runHashPurity,
}

func runHashPurity(prog *Program, p *Package) []Finding {
	var out []Finding
	for _, f := range p.fns {
		if prog.digest[f.id] == nil || len(f.nondet) == 0 {
			continue
		}
		// The chain runs entry → … → f, eliding the middle past six.
		ids := append([]string{prog.shortID(f.id)}, prog.path(prog.digest, f.id, -1)...)
		if len(ids) > 6 {
			ids = append(ids[:5], "…", ids[len(ids)-1])
		}
		slices.Reverse(ids)
		for _, nd := range f.nondet {
			out = append(out, p.findingAt(nd.pos, nameHashPurity,
				"%s %s, inside the digest path %s; digested bytes must be identical across runs and machines",
				f.fn.Name(), nd.desc, strings.Join(ids, " → ")))
		}
	}
	return out
}
