// Package gossip runs the consensus dynamics node by node: every node
// holds one opinion and its own PRNG stream, and each round it pulls
// the opinions of uniformly random peers (itself included). It exists
// to check that the abstract count-space Markov chain of internal/core
// is the law of that per-node execution (the tests cross-validate the
// two), and to study fault models the abstract chain cannot express:
// crashed nodes and lossy pulls.
//
// It is a simulation of a message-passing system, not one: the
// repository's real message-passing system is the conserve cluster
// (internal/cluster), whose kill/failover e2e SIGKILLs live processes
// mid-sweep (`make cluster-e2e`).
//
// # Synchronous round
//
// A round is a loop over the nodes on one snapshot. Every node reads
// peers' round-(t−1) opinions and writes its round-t opinion into a
// second slice; the two slices swap once every node has stepped. No
// node can observe a round-t opinion while any node is still sampling
// round t, which is exactly Definition 3.1's synchronous update.
// Because each node draws only from its own stream and every pull
// reads round t−1, the outcome is a function of the seed alone.
//
// # Fault model
//
// Crashed nodes fail every pull sent to them (an RPC-error model) and
// never change their own opinion. A pull is also lost independently
// with probability LossProb. A node any of whose pulls fail keeps its
// opinion for that round (omission degrades the dynamics toward
// laziness but preserves safety; the tests quantify the slowdown).
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package gossip
