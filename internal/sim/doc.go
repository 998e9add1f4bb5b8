// Package sim holds the deterministic trial scheduler,
// ForEachTrialRangeCtx, that every execution mode shares: workers claim
// contiguous trial ranges from a pool, a panicking range becomes an
// error, and cancellation lands at range boundaries. Bodies derive all
// randomness from the absolute trial index, so results never depend on
// the worker count or the range width.
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package sim
