package sweep

import (
	"fmt"
	"os"
	"path/filepath"
)

// Validate checks a loaded checkpoint against the sweep it is about to
// resume: the spec fingerprints must match and every cell index must fit
// the grid exactly once. It exists because checkpoints travel — across
// interrupted runs, and now across coordinator/worker version skew — so a
// stale or foreign file must fail with a message that names the mismatch
// instead of panicking inside Grid.Values or silently folding alien cells
// into the result.
func (c *Checkpoint) Validate(spec string, grid Grid) error {
	if c.Spec != spec {
		return fmt.Errorf("sweep: checkpoint spec %q does not match sweep spec %q (the target, stream layout, grid, precision, estimator or seed changed since it was written)",
			c.Spec, spec)
	}
	size := grid.Size()
	seen := make(map[int]bool, len(c.Cells))
	for _, cell := range c.Cells {
		if cell.Index < 0 || cell.Index >= size {
			return fmt.Errorf("sweep: checkpoint cell index %d outside grid of %d cells (checkpoint from a larger or reshaped grid?)",
				cell.Index, size)
		}
		if seen[cell.Index] {
			return fmt.Errorf("sweep: checkpoint lists cell %d twice", cell.Index)
		}
		seen[cell.Index] = true
	}
	return nil
}

// WriteFile persists the checkpoint durably: encode into a temp file in
// the destination directory, fsync it, rename over path, then fsync the
// directory. The rename alone only makes the replacement atomic against
// concurrent readers — without the file sync a crash shortly after can
// still publish an empty or truncated checkpoint from the page cache, and
// without the directory sync the rename itself may not survive. Shared by
// cmd/sweep and the distributed-sweep coordinator so every checkpoint on
// disk carries the same guarantee.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := c.Encode(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadCheckpointFile loads a checkpoint written by WriteFile (or any
// Encode output) and reports a missing file as os.ErrNotExist for callers
// that treat absence as "fresh run".
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
