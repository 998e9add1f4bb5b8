// Package cluster distributes conserve across a fleet: coordinators
// split a request's trial range into index-contiguous shards, run them
// on workers over HTTP, and merge the results into the same canonical
// Response a single process would have produced.
//
// # Ownership
//
// Coordinators hold no shared state. Each request key is owned by one
// coordinator, chosen by consistent hashing over the coordinator set,
// and only the owner dispatches it. A coordinator that is not the owner
// forwards the normalized request to the owner's POST /cluster/run,
// bounded by the lease timeout. The owner serves forwards in its HTTP
// handler rather than its Runner, so coordinators forwarding to each
// other never wait on each other's Runner slots. It joins concurrent
// callers for a key, local or forwarded, onto one dispatch, and reads
// the fleet cache before dispatching, which makes a key run once
// fleet-wide. When the forward fails (dead or hung owner, 5xx) the
// coordinator dispatches the job itself.
//
// # Dispatch
//
// The owner plans the shards with PlanShards and runs shard i on the
// worker-ring owner of "key#i" over /cluster/execute, bounded by the
// lease timeout. A failed execution moves the shard to the next worker
// in ring order (a requeue); after every worker has failed it once, the
// shard pauses and starts another pass, until the request's context
// ends. The merged bytes go through the fleet cache, whose owners are
// the key's two successors on the ring of all peers.
//
// # Byte identity
//
// Workers execute shards through service.ExecuteShard, which derives
// each trial's seed from (request seed, trial index) alone, so a shard
// run twice, on any node, gives the same bytes. service.MergeShards
// checks that the shards tile [0, trials) exactly and reassembles the
// response as the single-process path does. This is what lets a
// coordinator simply recompute whatever a crash interrupted.
//
// The DESIGN.md "Cluster" section documents placement, retry, the owner
// forward, the fleet cache and the byte-identity argument in full.
package cluster
