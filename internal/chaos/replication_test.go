package chaos

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/storage"
	"repro/internal/storage/erasure"
)

// TestReplicationSpecValidation rejects the replication knobs the
// executor cannot run.
func TestReplicationSpecValidation(t *testing.T) {
	base := Generate(1)
	for name, mutate := range map[string]func(*Spec){
		"unknown-mode":          func(s *Spec) { s.Replication = "raid6" },
		"geometry-without-mode": func(s *Spec) { s.Replication, s.DataShards = "", 2 },
		"geometry-with-buddy":   func(s *Spec) { s.Replication = "buddy"; s.ParityShards = 1 },
		"erasure-too-wide":      func(s *Spec) { s.Replication = "erasure"; s.DataShards = 5; s.ParityShards = 2 },
	} {
		sp := base.Clone()
		mutate(sp)
		if sp.validate() == nil {
			t.Errorf("%s: validate accepted a bad spec", name)
		}
	}
	ok := base.Clone()
	ok.Replication, ok.DataShards, ok.ParityShards = "buddy", 0, 0
	if err := ok.validate(); err != nil {
		t.Errorf("buddy spec rejected: %v", err)
	}
}

// auditCluster builds a bare cluster (no supervisor) whose disks the
// auditReader tests populate by hand.
func auditCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	return cluster.New(cluster.Config{Nodes: nodes, Seed: 1, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), kernel.NewRegistry())
}

// TestAuditReaderMirrorUnionAndMask: the union reader finds a copy on
// whichever disk holds it, falls back to the server, and a masked slot
// becomes invisible — the mechanics every repl-durability verdict rests
// on.
func TestAuditReaderMirrorUnionAndMask(t *testing.T) {
	c := auditCluster(t, 3)
	payload := []byte("only on node 1")
	if err := storage.Write(c.Node(1).Disk, "obj", payload, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if got, err := newAuditReader(c, false, nil).ReadObject("obj", nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("union read: %v %q", err, got)
	}
	if _, err := newAuditReader(c, false, map[int]bool{1: true}).ReadObject("obj", nil); err == nil {
		t.Fatal("masked slot still visible")
	}
	// Server fallback: an object only the server holds.
	srvOnly := []byte("server copy")
	if err := storage.Write(storage.NewRemote("t", c.Server), "srv-obj", srvOnly, storage.WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if got, err := newAuditReader(c, false, nil).ReadObject("srv-obj", nil); err != nil || !bytes.Equal(got, srvOnly) {
		t.Fatalf("server fallback: %v", err)
	}
	if _, err := newAuditReader(c, false, map[int]bool{auditServer: true}).ReadObject("srv-obj", nil); err == nil {
		t.Fatal("masked server still visible")
	}
}

// TestAuditReaderErasureDecode: shards scattered across disks decode
// through the union; losing any single holder still decodes (k of k+m
// survive); losing two does not.
func TestAuditReaderErasureDecode(t *testing.T) {
	c := auditCluster(t, 4)
	payload := bytes.Repeat([]byte("erasure coded checkpoint "), 100)
	shards, err := erasure.EncodeObject(payload, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		if err := storage.Write(c.Node(i).Disk, "obj", sh, storage.WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := newAuditReader(c, true, nil).ReadObject("obj", nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("full decode: %v", err)
	}
	if got, err := newAuditReader(c, true, map[int]bool{0: true}).ReadObject("obj", nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode missing one shard: %v", err)
	}
	if _, err := newAuditReader(c, true, map[int]bool{0: true, 2: true}).ReadObject("obj", nil); err == nil {
		t.Fatal("decoded with only k-1 shards")
	}
}
