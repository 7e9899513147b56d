// OverWire models reaching another node's storage across the
// interconnect. A buddy replica is physically the buddy's local disk,
// but the owner's writes to it pay network transfer on top of the disk
// stream — the cost asymmetry that makes buddy checkpointing cheaper to
// read back (the buddy restores from its own disk) than to maintain.

package storage

import (
	"repro/internal/costmodel"
)

type overWire struct {
	Target
	cm *costmodel.Model
}

// OverWire wraps t so every data byte additionally crosses the
// interconnect, charged per chunk with cm; metadata operations pay one
// small message. Wrap before FencedAt so the fence guards the
// wire-priced commit point.
func OverWire(t Target, cm *costmodel.Model) Target {
	return &overWire{Target: t, cm: cm}
}

// chargeWire bills n bytes of interconnect time in chunk-sized
// transfers.
func (o *overWire) chargeWire(n int, env *Env, what string) {
	env = orNop(env)
	for off := 0; off < n; off += chunk {
		env.Wait(o.cm.NetTransfer(min(n-off, chunk)), what)
	}
}

// Create implements Target: writes stream over the wire first.
func (o *overWire) Create(object string, env *Env) (Writer, error) {
	w, err := o.Target.Create(object, env)
	if err != nil {
		return nil, err
	}
	return &wireWriter{o: o, w: w, env: orNop(env)}, nil
}

type wireWriter struct {
	o   *overWire
	w   Writer
	env *Env
}

func (w *wireWriter) Write(p []byte) (int, error) {
	w.o.chargeWire(len(p), w.env, "wire-write")
	return w.w.Write(p)
}

func (w *wireWriter) Commit() error { return w.w.Commit() }
func (w *wireWriter) Abort()        { w.w.Abort() }

// ReadObject implements Target: the bytes come back over the wire.
func (o *overWire) ReadObject(object string, env *Env) ([]byte, error) {
	data, err := o.Target.ReadObject(object, env)
	if err != nil {
		return nil, err
	}
	o.chargeWire(len(data), env, "wire-read")
	return data, nil
}

// ReadBatch implements BatchReader, preserving the underlying batched
// pass when the wrapped target has one.
func (o *overWire) ReadBatch(objects []string, env *Env) ([][]byte, error) {
	if br, ok := o.Target.(BatchReader); ok {
		out, err := br.ReadBatch(objects, env)
		if err != nil {
			return nil, err
		}
		for _, data := range out {
			o.chargeWire(len(data), env, "wire-read")
		}
		return out, nil
	}
	out := make([][]byte, len(objects))
	for i, name := range objects {
		data, err := o.ReadObject(name, env)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// Publish implements Target: one control message plus the rename.
func (o *overWire) Publish(staging, final string, env *Env) error {
	orNop(env).Wait(o.cm.NetTransfer(64), "wire-publish")
	return o.Target.Publish(staging, final, env)
}
