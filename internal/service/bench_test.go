package service_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
)

// BenchmarkServiceHit times one warm cache hit through the service in
// process: Submit answers it from the memory tier and WaitResult returns
// at once.
func BenchmarkServiceHit(b *testing.B) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	ctx, sc := context.Background(), scenario(256)
	hit := func() bool {
		job, err := svc.SubmitOne(ctx, sc)
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.WaitResult(ctx, 0)
		if err != nil || res.Error != "" {
			b.Fatal(err, res.Error)
		}
		return res.Cached
	}
	hit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !hit() {
			b.Fatal("warm request missed the cache")
		}
	}
}

// BenchmarkHTTPHit times one warm cache hit end to end over loopback
// HTTP: the client encodes the scenario, the handler decodes, keys and
// answers it, and the client decodes the response.
func BenchmarkHTTPHit(b *testing.B) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx, sc := context.Background(), scenario(256)
	if _, err := cl.Simulate(ctx, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Simulate(ctx, sc)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("warm request missed the cache")
		}
	}
}
