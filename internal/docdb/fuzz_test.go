package docdb

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
)

// FuzzServerFrame feeds arbitrary bytes through the server's request path
// as a connection's read loop does — readFrame, then handle, over a
// MemStore — until a frame fails to read. Nothing may panic; every answer
// must be a well-formed frame that reads back as the response it encodes;
// and reading a frame may allocate at most readChunk ahead of the bytes
// that actually arrived, whatever its header claims. The seed corpus in
// testdata/fuzz/FuzzServerFrame holds a frame sequence for every operation,
// chain included, and headers that claim more than arrives.
func FuzzServerFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{backend: NewMemStore(), dedup: newInsertDedup()}
		br := bufio.NewReaderSize(bytes.NewReader(data), connBuffer)
		// Decoding allocates in proportion to the body; the factor is loose
		// on purpose, the bound is about what a header alone can claim.
		bound := uint64(readChunk + 64*len(data) + 64<<10)
		var before, after runtime.MemStats
		for {
			var req request
			runtime.ReadMemStats(&before)
			_, err := readFrame(br, &req)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
				t.Fatalf("reading a frame from %d bytes allocated %d bytes, bound %d", len(data), grew, bound)
			}
			if err != nil {
				return // the server drops the connection here
			}
			resp := s.handle(req)
			resp.Seq = req.Seq
			var wire bytes.Buffer
			n, err := writeFrame(&wire, resp)
			if err != nil {
				t.Fatalf("the answer to %q does not frame: %v", req.Op, err)
			}
			var back response
			m, err := readFrame(&wire, &back)
			if err != nil || m != n || wire.Len() != 0 {
				t.Fatalf("the answer to %q does not read back as one frame: read %d of %d bytes, %d left, err %v", req.Op, m, n, wire.Len(), err)
			}
			if back.OK != resp.OK || back.Error != resp.Error || back.Seq != req.Seq || len(back.Docs) != len(resp.Docs) {
				t.Fatalf("the answer to %q reads back as %+v, sent %+v", req.Op, back, resp)
			}
		}
	})
}
