package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"fekf/internal/online"
)

// BenchmarkServerPredict measures /v1/predict over loopback HTTP against a
// trainer holding its initial snapshot: one client posting back to back,
// and at least 8 clients at once (exactly 8 at GOMAXPROCS 1, 2, 4 or 8).
// Allocations count both sides, since client and server share the process.
func BenchmarkServerPredict(b *testing.B) {
	ds, m, opt := tinyCu(b)
	tr, err := online.NewTrainer(m, opt, ds, online.TrainerConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	tr.Start()
	srv := New(tr, Config{})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	s := ds.Snapshots[0]
	body, err := json.Marshal(PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types})
	if err != nil {
		b.Fatal(err)
	}
	url := "http://" + srv.Addr() + "/v1/predict"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	predict := func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict: %s", resp.Status)
		}
		return nil
	}

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := predict(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel8", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((8 + procs - 1) / procs)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := predict(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
