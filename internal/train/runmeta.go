package train

import "encoding/json"

// RunMeta is the TRCKPv1-adjacent run-metadata sidecar: a small JSON
// document written next to every checkpoint (at "<CkptPath>.meta.json")
// that records what the run trained — most importantly the gradient
// estimator, which the binary TRCKPv1 blob deliberately does not encode
// (the estimator is baked into the model's gradient tables, not into
// the parameters). It is JSON for people and scripts to read; the
// checkpoint format itself is untouched.
type RunMeta struct {
	// Format names the checkpoint format the sidecar accompanies.
	Format string `json:"format"`
	// Estimator is the gradient-estimator label of the run
	// ("unspecified" when the caller set none).
	Estimator string `json:"estimator"`
	// Seed, Epochs, BatchSize and Shards mirror the run's Config.
	Seed      int64 `json:"seed"`
	Epochs    int   `json:"epochs"`
	BatchSize int   `json:"batch_size"`
	Shards    int   `json:"shards,omitempty"`
}

// MetaPath returns the sidecar path for a checkpoint path.
func MetaPath(ckptPath string) string { return ckptPath + ".meta.json" }

// writeRunMeta atomically writes the run-metadata sidecar for a run's
// Config, with the checkpoint's own writeFileAtomic.
func writeRunMeta(cfg Config) error {
	est := cfg.Estimator
	if est == "" {
		est = "unspecified"
	}
	meta := RunMeta{
		Format:    "TRCKPv1",
		Estimator: est,
		Seed:      cfg.Seed,
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Shards:    cfg.Shards,
	}
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(MetaPath(cfg.CkptPath), append(blob, '\n'))
}
