package syslevel

import (
	"testing"

	"repro/internal/mechanism"
	"repro/internal/workload"
)

// TestKernelThreadFamily pins what only the kernel-thread mechanisms
// share: Install loads their module, idempotently, with its device node
// and any /proc entry, and unloading the module takes every node with
// it. Their round trips and refusals are rows of the family table
// (TestLifecycleAllMechanisms).
func TestKernelThreadFamily(t *testing.T) {
	cases := []struct {
		mk     func() mechanism.Mechanism
		module string
		nodes  []string // device node, then any /proc entry
	}{
		{func() mechanism.Mechanism { return NewCRAK() }, "crak", []string{"/dev/crak"}},
		{func() mechanism.Mechanism { return NewUCLiK() }, "uclik", []string{"/dev/uclik"}},
		{func() mechanism.Mechanism { return NewZAP() }, "zap", []string{"/dev/zap"}},
		{func() mechanism.Mechanism { return NewPsncRC() }, "psncrc", []string{"/dev/psncrc", "/proc/psncrc"}},
		{func() mechanism.Mechanism { return NewBLCR() }, "blcr", []string{"/dev/blcr"}},
		{func() mechanism.Mechanism { return NewLAMMPI() }, "blcr", []string{"/dev/blcr"}},
		{func() mechanism.Mechanism { return NewTICK() }, "tick", []string{"/dev/tick"}},
	}
	prog := workload.Sparse{MiB: 2, WriteFrac: 0.2, Seed: 9}
	for _, c := range cases {
		c := c
		t.Run(c.mk().Name(), func(t *testing.T) {
			m := c.mk()
			k := newMachine("mod", prog)
			for i := 0; i < 2; i++ {
				if err := m.Install(k); err != nil {
					t.Fatalf("install %d: %v", i+1, err)
				}
			}
			if !k.ModuleLoaded(c.module) {
				t.Fatalf("module %q not loaded", c.module)
			}
			for _, n := range c.nodes {
				if !k.FS.Exists(n) {
					t.Fatalf("%s missing after install", n)
				}
			}
			if err := k.UnloadModule(c.module); err != nil {
				t.Fatal(err)
			}
			for _, n := range c.nodes {
				if k.FS.Exists(n) {
					t.Fatalf("%s left behind by unload", n)
				}
			}
		})
	}
}
