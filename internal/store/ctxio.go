package store

import (
	"context"
	"io"

	"insitubits/internal/index"
	"insitubits/internal/telemetry"
)

// Context-aware wrappers around the container read/write entry points.
// When ctx carries an identity-trace span (internal/telemetry), each call
// records one "store.*" child span with its byte count, so a query or
// pipeline-step trace shows exactly which I/O it paid for. Without a span
// in ctx they cost one context lookup and delegate — the plain functions
// remain the canonical API for untraced callers.

// WriteIndexCtx is WriteIndex with a trace span recorded under ctx.
func WriteIndexCtx(ctx context.Context, w io.Writer, x *index.Index) (int64, error) {
	sp := telemetry.SpanFromContext(ctx).Child("store.write_index")
	n, err := WriteIndex(w, x)
	sp.SetAttrInt("bytes", n)
	sp.End()
	return n, err
}

// ReadIndexCtx is ReadIndex with a trace span recorded under ctx.
func ReadIndexCtx(ctx context.Context, r io.Reader) (*index.Index, error) {
	sp := telemetry.SpanFromContext(ctx).Child("store.read_index")
	x, err := ReadIndex(r)
	if x != nil {
		sp.SetAttrInt("bins", int64(x.Bins()))
		sp.SetAttrInt("elements", int64(x.N()))
	}
	sp.End()
	return x, err
}

// WriteRawCtx is WriteRaw with a trace span recorded under ctx.
func WriteRawCtx(ctx context.Context, w io.Writer, data []float64) (int64, error) {
	sp := telemetry.SpanFromContext(ctx).Child("store.write_raw")
	n, err := WriteRaw(w, data)
	sp.SetAttrInt("bytes", n)
	sp.End()
	return n, err
}
