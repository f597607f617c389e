package distrib

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
)

// Handler executes one task: decode the payload, do the work, encode
// the result. Handlers run inside workers (and in-process when the
// fabric degrades), so they must be deterministic functions of the
// payload plus process-level configuration the coordinator replicated
// to every worker (model/wafer/backend overrides, memo dir, workers).
// ctx ends when the task's shard is cancelled (the coordinator's Run
// context ended, or the shard was requeued elsewhere); handlers
// should stop early and may return ctx.Err().
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Handler{}
)

// RegisterKind installs the handler for a task kind. Consuming
// packages register in init(), so any binary that links them (the
// CLIs run themselves as workers) serves their kinds automatically.
func RegisterKind(kind string, h Handler) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("distrib: duplicate kind %q", kind))
	}
	registry[kind] = h
}

func lookupKind(kind string) Handler {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[kind]
}

// HandlerGob adapts a typed task function into a Handler with gob
// payloads — the default for plain-struct task shapes.
func HandlerGob[I, O any](fn func(context.Context, I) (O, error)) Handler {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		var in I
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&in); err != nil {
			return nil, fmt.Errorf("distrib: decode task: %w", err)
		}
		out, err := fn(ctx, in)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
			return nil, fmt.Errorf("distrib: encode result: %w", err)
		}
		return buf.Bytes(), nil
	}
}

// EncodeGob / DecodeGob are the coordinator-side complements of
// HandlerGob for building task payload slices and reading results.
func EncodeGob[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func DecodeGob[T any](b []byte) (T, error) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}

// RunTasks shards typed inputs through the fabric (or in-process when
// f is nil or has no live workers) and decodes the outputs back into
// their input order. errs[i] is non-nil when task i's handler failed.
func RunTasks[I, O any](f *Fabric, kind string, inputs []I) ([]O, []error) {
	return RunTasksCtx[I, O](context.Background(), f, kind, inputs)
}

// RunTasksCtx is RunTasks with cancellation: unfinished tasks report
// ctx.Err() once the context ends.
func RunTasksCtx[I, O any](ctx context.Context, f *Fabric, kind string, inputs []I) ([]O, []error) {
	payloads := make([][]byte, len(inputs))
	outs := make([]O, len(inputs))
	errs := make([]error, len(inputs))
	for i, in := range inputs {
		b, err := EncodeGob(in)
		if err != nil {
			errs[i] = err
			return outs, errs
		}
		payloads[i] = b
	}
	raw, rawErrs := f.RunCtx(ctx, kind, payloads)
	for i := range raw {
		if rawErrs[i] != nil {
			errs[i] = rawErrs[i]
			continue
		}
		v, err := DecodeGob[O](raw[i])
		if err != nil {
			errs[i] = err
			continue
		}
		outs[i] = v
	}
	return outs, errs
}
