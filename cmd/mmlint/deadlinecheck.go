package main

// deadlinecheck: a net.Conn read or write with no armed deadline waits on
// the peer forever. In the docdb tier that means one stalled client pins a
// server handler goroutine (plus its connection slot) until process death,
// and one stalled server pins a client save/recover — the exact failure
// faultnet's stall mode injects. The discipline the client already follows
// (client.go arms SetDeadline from OpTimeout before every frame exchange)
// is enforced for the whole docdb tier: inside every function, each conn
// read/write — a direct Read/Write call, or the conn handed to a callee
// that can only read or write it (an io.Reader/io.Writer parameter has no
// deadline control) — must be lexically preceded by a SetDeadline/
// SetReadDeadline/SetWriteDeadline on some conn.
//
// Obligations transfer with ownership: passing the conn to a parameter
// that is itself conn-typed (serveConn(conn net.Conn)) is not an I/O site —
// the callee owns the conn there and is checked on its own. Methods of
// conn-implementing wrapper types (faultnet.Conn) are the abstraction
// itself, not a use of it, and are exempt from the direct-call rule.
const nameDeadlineCheck = "deadlinecheck"

var deadlineCheckAnalyzer = &Analyzer{
	Name: nameDeadlineCheck,
	Doc:  "net.Conn read/write in docdb with no deadline armed first",
	Run:  runDeadlineCheck,
}

func runDeadlineCheck(prog *Program, p *Package) []Finding {
	if !pathHasSegment(p.ImportPath, "docdb") {
		return nil
	}
	var out []Finding
	for _, f := range p.fns {
		for _, io := range f.connIO {
			armed := false
			for _, d := range f.deadlines {
				if d < io.pos {
					armed = true
					break
				}
			}
			if armed {
				continue
			}
			out = append(out, p.findingAt(io.pos, nameDeadlineCheck,
				"%s %s with no deadline armed; a stalled peer pins this goroutine forever — call SetReadDeadline/SetWriteDeadline first (see client.go's OpTimeout discipline)",
				f.fn.Name(), io.desc))
		}
	}
	return out
}
