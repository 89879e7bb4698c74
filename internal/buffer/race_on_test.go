//go:build race

package buffer

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a quarter of what is Put, so allocation gates on pooled
// paths are skipped (the paths still run).
const raceEnabled = true
