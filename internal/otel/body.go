package otel

import (
	"bytes"
	"net/http"
	"sync"
)

// Body is a request body read into a pooled buffer: the one body reader of
// the collector's ingest routes and the model server's /score. Its bytes
// are valid until Release. Every decoder copies what it keeps out of its
// input, so the spans decoded from a Body outlive it.
type Body struct{ buf bytes.Buffer }

// maxPooledBody is the largest buffer Release returns to the pool: a rare
// huge body goes to the GC.
const maxPooledBody = 2 << 20

var bodies = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r's body, at most limit bytes (past it the error is an
// *http.MaxBytesError, and w is told to close the connection), into a
// pooled buffer grown from Content-Length. The header is a hint a client
// can inflate, so it reserves at most 1 MiB; a larger body grows the
// buffer. On error the buffer is already back in the pool.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (*Body, error) {
	b := bodies.Get().(*Body)
	b.buf.Grow(int(max(0, min(r.ContentLength, limit, 1<<20))) + bytes.MinRead)
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Bytes returns the body; it is valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release gives the buffer back to the pool; b must not be used after.
func (b *Body) Release() {
	if b.buf.Cap() <= maxPooledBody {
		b.buf.Reset()
		bodies.Put(b)
	}
}
