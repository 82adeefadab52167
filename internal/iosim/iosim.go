// Package iosim provides bandwidth-modelled storage accounting. A Store
// tallies the bytes written to a device of fixed bandwidth and reports the
// modelled transfer time. Sharing one Store between several writers models
// contention on a shared device (the paper's single remote data server in
// Figure 13): modelled time is total bytes over device bandwidth regardless
// of who wrote them.
package iosim

import (
	"fmt"
	"sync"
	"time"
)

// Store is a bandwidth-modelled storage target. Safe for concurrent use.
type Store struct {
	mu            sync.Mutex
	bandwidthMBps float64
	bytes         int64
	writes        int64
}

// NewStore models a device with the given bandwidth in MB/s.
func NewStore(bandwidthMBps float64) (*Store, error) {
	if bandwidthMBps <= 0 {
		return nil, fmt.Errorf("iosim: bandwidth %g MB/s must be positive", bandwidthMBps)
	}
	return &Store{bandwidthMBps: bandwidthMBps}, nil
}

// Account records one write of n bytes; the experiments need the cost
// model, not the artifact.
func (s *Store) Account(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("iosim: negative byte count %d", n))
	}
	s.mu.Lock()
	s.bytes += n
	s.writes++
	s.mu.Unlock()
}

// BytesWritten returns the total bytes recorded so far.
func (s *Store) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Writes returns the number of write operations recorded.
func (s *Store) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// ModeledTime converts the bytes written so far into transfer time on the
// modelled device.
func (s *Store) ModeledTime() time.Duration {
	s.mu.Lock()
	b := s.bytes
	s.mu.Unlock()
	return ModelTransfer(b, s.bandwidthMBps)
}

// Reset clears the accounting (the bandwidth is kept).
func (s *Store) Reset() {
	s.mu.Lock()
	s.bytes = 0
	s.writes = 0
	s.mu.Unlock()
}

// ModelTransfer returns the time to move n bytes at the given bandwidth.
func ModelTransfer(n int64, bandwidthMBps float64) time.Duration {
	seconds := float64(n) / (bandwidthMBps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}
