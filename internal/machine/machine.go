// Package machine declares the hardware profiles of the paper's testbeds.
// Compute is always measured for real on the host; only device *bandwidths*
// (local disk, network to a remote store) are modelled, which is what pins
// the shape of the paper's figures — I/O time stays flat while compute
// shrinks with added cores — independent of the machine running the
// reproduction (see DESIGN.md §1.2 for the substitution argument).
package machine

// Profile describes one node type from the paper's evaluation (§5).
type Profile struct {
	Name string
	// Cores is the number of worker goroutines the experiments use to play
	// the role of this node's cores.
	Cores int
	// MemoryBytes bounds the in-situ working set (the MIC node's 8 GB is
	// why the paper shrinks its grids there; experiments scale likewise).
	MemoryBytes int64
	// DiskMBps is the local storage bandwidth used to model output time.
	DiskMBps float64
	// NetMBps is the bandwidth toward a remote data server.
	NetMBps float64
}

// The paper's three machine types, with bandwidths chosen to preserve the
// paper's compute:I/O ratios at reproduction scale.
var (
	// Xeon is the 32-core, 1 TB OSC node of Figures 7, 9, 12a, 12c, 15.
	Xeon = Profile{Name: "xeon", Cores: 32, MemoryBytes: 1 << 40, DiskMBps: 250, NetMBps: 100}
	// MIC is the 60-core, 8 GB Intel Xeon Phi of Figures 8, 10, 12b: many
	// cores, little memory, and markedly slower storage.
	MIC = Profile{Name: "mic", Cores: 60, MemoryBytes: 8 << 30, DiskMBps: 80, NetMBps: 100}
	// OakleyNode is one 12-core, 48 GB node of the Oakley cluster
	// (Figure 13); the paper uses 8 cores per node there.
	OakleyNode = Profile{Name: "oakley", Cores: 12, MemoryBytes: 48 << 30, DiskMBps: 200, NetMBps: 100}
)

// RemoteStoreMBps is the shared remote data server bandwidth of Figure 13.
const RemoteStoreMBps = 100.0
