package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/steady"
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
	hit() // the miss that fills the cache
	steady.Loop(b, func() {
		if !hit() {
			b.Fatal("warm request missed the cache")
		}
	})
}

// BenchmarkHTTPHit times one warm cache hit end to end over loopback
// HTTP: the client encodes the scenario, the handler decodes, keys and
// answers it, and the client decodes the response, on one kept-alive
// connection without compression.
func BenchmarkHTTPHit(b *testing.B) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	cl := client.New(ts.URL)
	cl.HTTPClient = &http.Client{Transport: tp}
	ctx, sc := context.Background(), scenario(256)
	hit := func() bool {
		resp, err := cl.Simulate(ctx, sc)
		if err != nil {
			b.Fatal(err)
		}
		return resp.Cached
	}
	hit() // the miss that fills the cache
	steady.Loop(b, func() {
		if !hit() {
			b.Fatal("warm request missed the cache")
		}
	})
}
