package repro

import "repro/internal/owner"

// BatchResult is one completed query of a streaming batch (see
// Client.QueryAsync).
type BatchResult = owner.BatchResult

// QueryBatch executes many selections as one batch, sharing cloud-side
// work across them: the encrypted side of every query goes to the
// technique in a single batched search (scan-shaped techniques pull the
// attribute column or scan their table once per batch instead of once per
// query; on a remote cloud, one round trip serves the whole batch's bin
// fetches), while the plaintext bin fetches fan out over a GOMAXPROCS
// worker pool. It returns one answer slice per query, indexed like ws.
//
// The batch is observationally equivalent to looping Query sequentially:
// per-query results are identical and the adversarial views are logged in
// input order, so AdversarialViews is deterministic. On failure the error
// of the lowest-index failing query is returned. With a remote cloud the
// batch keeps many calls in flight on the one multiplexed connection, and
// a remote failure mid-batch fails the batch rather than thinning its
// results.
func (c *Client) QueryBatch(ws []Value) ([][]Tuple, error) {
	out, _, err := c.QueryBatchWithStats(ws)
	return out, err
}

// QueryBatchWithStats is QueryBatch plus the per-query cost breakdowns.
// On the batched path each QueryStats.Enc is the query's attributable
// slice of the shared batch search — its access pattern and result
// transfers — with work shared across the batch (the column pull or table
// scan, and its round trips) counted once at the technique level rather
// than per query.
func (c *Client) QueryBatchWithStats(ws []Value) ([][]Tuple, []*QueryStats, error) {
	before := c.remoteLogicalCount()
	out, stats, err := c.owner.QueryBatch(ws, 0)
	return out, stats, c.finishRemote(before, err)
}

// QueryAsync streams a batch: results are delivered on the returned
// channel as soon as each query completes (with its input Index, so
// callers can reorder), and the channel closes when the batch is done.
// Unlike QueryBatch, per-query failures are delivered in-band as
// BatchResult.Err and do not stop the remaining queries; adversarial views
// are logged in completion order, which keeps the view multiset — though
// not its order — identical to a sequential loop. The caller must drain
// the channel until it closes (e.g. with range), even after seeing an
// error: abandoning it mid-stream blocks the worker pool forever.
//
// With a remote cloud, a backend failure is folded into the stream
// conservatively: every result delivered after the failure was detected
// carries it as Err, even one whose own query had already completed — the
// failure window cannot be attributed per-query from outside the engine,
// and erring towards flagging beats silently trusting results produced
// around a dying connection.
func (c *Client) QueryAsync(ws []Value) <-chan BatchResult {
	before := c.remoteLogicalCount()
	ch := c.owner.QueryAsync(ws)
	if c.remote == nil {
		return ch
	}
	out := make(chan BatchResult)
	go func() {
		defer close(out)
		for res := range ch {
			res.Err = c.finishRemote(before, res.Err)
			out <- res
		}
	}()
	return out
}
