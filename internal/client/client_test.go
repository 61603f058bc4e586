package client_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/client"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

func startServer(t *testing.T, shards, procs int) (*server.Server, *shardkv.Store) {
	t.Helper()
	store := shardkv.New(shards, procs)
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, store
}

// TestTransparentResume exercises both chaos hooks: a connection severed
// between operations and one severed after the request is sent. Every call
// still returns a definite verdict and no write is lost or duplicated.
func TestTransparentResume(t *testing.T) {
	srv, store := startServer(t, 2, 1)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	c.KillConn()
	if out, err := c.Put("a", 1); err != nil || !out.Status.Linearized() {
		t.Fatalf("put after idle kill: %v %+v", err, out)
	}

	c.KillAfterNextSend()
	out, err := c.Put("a", 2)
	if err != nil || !out.Status.Linearized() {
		t.Fatalf("put with reply lost: %v %+v", err, out)
	}
	if got := store.Peek("a"); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
	if puts := store.TotalStats().Puts; puts != 2 {
		t.Fatalf("put executions = %d, want 2 (kill must not duplicate)", puts)
	}
	if c.Resumes() < 2 {
		t.Fatalf("resumes = %d, want ≥ 2", c.Resumes())
	}
	if got, err := c.GetRetry("a"); err != nil || got != 2 {
		t.Fatalf("get retry: %v %d", err, got)
	}
}

// TestRaceStressWire drives concurrent sessions, an observer crash storm
// and connection kills through one server under the race detector.
func TestRaceStressWire(t *testing.T) {
	const workers = 4
	srv, _ := startServer(t, 4, workers)
	addr := srv.Addr().String()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		obs, err := client.DialObserver(addr)
		if err != nil {
			return
		}
		defer obs.Close()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := obs.CrashShard(rng.Intn(4)); err != nil {
				return
			}
			if i%10 == 0 {
				if _, err := obs.Stats(); err != nil {
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 120; i++ {
				key := fmt.Sprintf("w%d-%d", w, rng.Intn(8))
				if rng.Intn(16) == 0 {
					c.KillConn()
				}
				if rng.Intn(16) == 0 {
					c.KillAfterNextSend()
				}
				var plan []uint32
				if rng.Intn(6) == 0 {
					plan = []uint32{uint32(1 + rng.Intn(12))}
				}
				switch rng.Intn(4) {
				case 0:
					_, err = c.Get(key, plan...)
				case 1:
					_, err = c.Del(key, plan...)
				case 2:
					_, err = c.MultiPut([]shardkv.KV{{Key: key, Val: i}, {Key: key + "x", Val: i}})
				default:
					_, err = c.Put(key, i, plan...)
				}
				if err != nil {
					errs[w] = fmt.Errorf("op %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	storm.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
