//go:build race

package insitu

// raceEnabled reports a race-detector build. Its sync.Pool drops a quarter
// of what is put back, so a build regrows the pooled buffers it lost.
const raceEnabled = true
