// Package wire defines the cell identifier and the fixed sizes of the
// signalling messages exchanged between mobile terminals and the fixed
// network in the PCN system simulator: location updates (uplink), paging
// polls (downlink, one per polled cell), paging replies (uplink) and
// update acks (downlink). Each message has a fixed big-endian layout
// framed by a one-byte type tag, so its size is a constant: the simulator
// charges these sizes per message to account for signalling bandwidth in
// bytes as well as in the paper's abstract U/V cost units.
package wire

// Cell is a cell identifier: axial coordinates for the hexagonal grid,
// (index, 0) for the line.
type Cell struct {
	Q, R int32
}

// Sizes of the messages in bytes, including the type tag. A terminal id
// and a sequence or call number take 4 bytes each, a cell 8 (two int32
// coordinates).
const (
	// UpdateSize is a location update (paper Section 2.2): tag, terminal,
	// cell, sequence number and a 2-byte update threshold.
	UpdateSize = 1 + 4 + 8 + 4 + 2
	// PollSize is one cell's paging poll: tag, terminal, cell, call and a
	// 1-byte polling cycle.
	PollSize = 1 + 4 + 8 + 4 + 1
	// ReplySize is a paging reply: tag, terminal, cell and call.
	ReplySize = 1 + 4 + 8 + 4
	// AckSize is an update ack: tag, terminal and the acked sequence
	// number.
	AckSize = 1 + 4 + 4
)
