package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"github.com/sleuth-rca/sleuth/internal/nn"
)

// snapshot is the gob wire format of a model: architecture config, weights
// and the per-operation normal statistics. It corresponds to the objects
// the paper's model server stores and hands to inference workers (§4).
type snapshot struct {
	Format       string
	EmbeddingDim int
	Hidden       int
	Variant      Variant
	PlainSum     bool
	Seed         uint64
	Params       map[string][]float64
	Normals      map[string]NormalStats
	GlobalNormal NormalStats
}

const snapshotFormat = "sleuth-model-v1"

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	s := snapshot{
		Format:       snapshotFormat,
		EmbeddingDim: m.cfg.EmbeddingDim,
		Hidden:       m.cfg.Hidden,
		Variant:      m.cfg.Variant,
		PlainSum:     m.cfg.PlainSum,
		Seed:         m.cfg.Seed,
		Params:       nn.StateDict(m),
		Normals:      m.normals,
		GlobalNormal: m.globalNormal,
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a model previously written with Save. The blob is untrusted
// (POST /models/{name} hands it straight here), so a config implying more
// parameters than the blob carries is rejected before NewModel allocates
// them: a few hundred bytes must not be able to ask for terabytes.
func Load(r io.Reader) (*Model, error) {
	// Non-nil maps: gob sizes a nil map by the count the blob declares,
	// but fills an existing one entry by entry, so a lying count runs out
	// of input instead of reserving memory for it.
	s := snapshot{Params: map[string][]float64{}, Normals: map[string]NormalStats{}}
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if s.Format != snapshotFormat {
		return nil, fmt.Errorf("core: unknown model format %q", s.Format)
	}
	cfg := Config{
		EmbeddingDim: s.EmbeddingDim,
		Hidden:       s.Hidden,
		Variant:      s.Variant,
		PlainSum:     s.PlainSum,
		Seed:         s.Seed,
	}
	carried := 0
	for _, vals := range s.Params {
		carried += len(vals)
	}
	if implied := paramCount(cfg.withDefaults()); implied > float64(carried) {
		return nil, fmt.Errorf("core: model config implies %.0f parameters, the blob carries %d", implied, carried)
	}
	m := NewModel(cfg)
	if err := nn.LoadStateDict(m, s.Params); err != nil {
		return nil, err
	}
	m.normals = s.Normals
	m.globalNormal = s.GlobalNormal
	return m, nil
}

// paramCount is the number of scalar parameters NewModel allocates for cfg
// (defaults applied), counted in float64 so no config can overflow it.
func paramCount(cfg Config) float64 {
	in := 2 * (2 + float64(cfg.EmbeddingDim)) // f_Θ input: parent ∥ node features
	h := float64(cfg.Hidden)
	if cfg.Variant == VariantGCN {
		return in*h + h + h*h + h + h*headDim + headDim // three linear layers
	}
	return 1 + in*h + h + h*headDim + headDim // ε and a two-layer MLP
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Clone returns a deep copy of the model (weights and normals), so a
// pre-trained model can be fine-tuned for several targets independently.
func (m *Model) Clone() *Model {
	c := NewModel(m.cfg)
	if err := nn.LoadStateDict(c, nn.StateDict(m)); err != nil {
		// Same architecture by construction; a mismatch is a bug.
		panic(err)
	}
	c.normals = make(map[string]NormalStats, len(m.normals))
	for k, v := range m.normals {
		c.normals[k] = v
	}
	c.globalNormal = m.globalNormal
	return c
}
