package syslevel_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/mechanism/mechtest"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// TestLifecycleAllMechanisms runs the system-level rows of the family
// table: one pinned checkpoint/restart round trip per system, run to
// completion on a second machine, and each refusal's error kind.
func TestLifecycleAllMechanisms(t *testing.T) { mechtest.Run(t, taxonomy.SystemLevel) }

// kindAs is a local disk that reports another Table 1 kind.
type kindAs struct {
	storage.Target
	kind storage.Kind
}

func (t kindAs) Kind() storage.Kind { return t.kind }

// TestStorageRefusals pins every (system, target kind) pair the storage
// rule refuses, each with an error wrapping mechanism.ErrUnsupported;
// every other pair of the family table is admitted. The user-level
// schemes refuse no kind.
func TestStorageRefusals(t *testing.T) {
	refused := map[string]string{
		"BPROC":            "local remote memory replicated",
		"ZAP":              "local remote memory replicated",
		"UCLiK":            "remote replicated",
		"CHPOX":            "remote replicated",
		"PsncR/C":          "remote replicated",
		"Software Suspend": "remote replicated",
		"Checkpoint":       "remote replicated",
	}
	kinds := []storage.Kind{storage.KindLocal, storage.KindRemote, storage.KindMemory, storage.KindReplicated}
	for _, r := range mechtest.Family {
		for _, kind := range kinds {
			m := r.Mk()
			k, p := mechtest.Ready(t, m)
			tgt := kindAs{storage.NewLocal("disk0", costmodel.Default2005(), nil), kind}
			_, err := m.Request(k, p, tgt, nil)
			want := strings.Contains(" "+refused[m.Name()]+" ", " "+kind.String()+" ")
			if got := errors.Is(err, mechanism.ErrUnsupported); got != want {
				t.Errorf("%s with a %v target: %v; want refused %v", r.Name, kind, err, want)
			}
		}
	}
}
