// Package controller hosts the pluggable controller-layer stacks the
// four-way comparison adds on top of the paper's three fixed protocols:
//
//   - adaptive: a distributed slotframe/cell allocator (HRL-TSCH style)
//     that grows and sheds per-link transmit cells from observed queue
//     depth and loss, over RPL routing — autonomous scheduling with a
//     reactive schedule instead of Orchestra's static hash.
//   - sdn: a centralized SDN-style controller node that periodically
//     collects link/neighbor state over in-band report slots, recomputes
//     routes (shortest path over the collected RSS graph) and slotframe
//     assignments centrally, and disseminates them in-band — so its
//     reconvergence cost after faults is modeled, not free.
//
// Both stacks implement mac.Protocol, keep all mutable state per node
// (nodes talk only over the radio, so the cost of every exchange is
// modeled, and a napping node cannot miss a change another node made to
// its state), and expose the same capture/restore surface as the existing
// stacks so snapshots and warm starts work unchanged.
package controller

// ebChannelOffset is the sdn stack's beacon channel offset, the one every
// stack uses, so the comparison isolates routing/scheduling, not radio
// parameters. (The adaptive stack's offsets are rpl.Node's.)
const ebChannelOffset = 0
