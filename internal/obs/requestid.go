package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Request IDs: a cheap, unique-per-process correlation ID attached to every
// HTTP request by the server middleware and threaded through logs and run
// recorders; the shard client sends it in every request frame.

type requestIDKey struct{}

var (
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fallback: time-derived prefix; uniqueness within the process
			// still holds via the counter.
			binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
		}
		return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:]))
	}()
	reqCounter atomic.Uint64
)

// NewRequestID returns a process-unique request ID: a random per-process
// prefix plus a sequence number.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqCounter.Add(1))
}

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "" when none was attached.
func RequestID(ctx context.Context) string {
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		return id
	}
	return ""
}
