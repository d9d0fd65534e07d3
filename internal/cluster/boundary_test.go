package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
)

// TestShedCrossLinkBatchStaysRetryable: when the owner shard of a
// cross-shard link's endpoint sheds the endpoint's stub admission, the
// batch must come back as a retryable OverloadError with nothing applied,
// so that honoring Retry-After and resubmitting succeeds instead of
// colliding with its own half-applied first attempt (duplicate post).
func TestShedCrossLinkBatchStaysRetryable(t *testing.T) {
	opts := supervisedOptions(2)
	opts.SpillLimit = 1
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if si == 1 && wedged.Load() {
			time.Sleep(200 * time.Millisecond)
		}
	})
	cl.CrashShard(1)
	// One op fills shard 1's spill queue.
	if err := cl.AddBatch(core.Batch{Bloggers: []*blog.Blogger{{ID: ownedID(cl, 1, "fill")}}}); err != nil {
		t.Fatalf("spill ack: %v", err)
	}

	author, target := ownedID(cl, 0, "a"), ownedID(cl, 1, "t")
	b := core.Batch{
		Bloggers: []*blog.Blogger{{ID: author, Name: "A"}},
		Posts:    []*blog.Post{post("cross-post", string(author), time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))},
		Links:    []blog.Link{{From: author, To: target}},
	}
	var ov *OverloadError
	if err := cl.AddBatch(b); !errors.As(err, &ov) {
		t.Fatalf("cross-link batch to a saturated shard returned %v, want OverloadError", err)
	}

	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.AddBatch(b); err != nil {
		t.Fatalf("resubmit after Retry-After: %v", err)
	}
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !clusterPosts(cl)["cross-post"] {
		t.Fatal("resubmitted post missing")
	}
	if got := cl.BoundaryEdges(); got != 1 {
		t.Fatalf("BoundaryEdges = %d, want 1", got)
	}
}
