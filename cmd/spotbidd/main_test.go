package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/instances"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestStalledHeaderIsCut serves a warmed quote server through the
// daemon's HTTP server over loopback. A client sends a partial request
// header and stalls; the server must close that connection once the
// header timeout passes, while a normal /v1/quote on another
// connection succeeds in the meantime.
func TestStalledHeaderIsCut(t *testing.T) {
	srv, err := serve.New(serve.Config{Types: []instances.Type{instances.R3XLarge}})
	if err != nil {
		t.Fatal(err)
	}
	key := srv.Keys()[0]
	tr, err := trace.Generate(key.Type, trace.GenOptions{Days: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 300; slot++ {
		srv.SetSlot(slot)
		if err := srv.Ingest(key, slot, tr.At(slot)); err != nil {
			t.Fatal(err)
		}
		srv.MaybeRebuild(slot)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(serve.NewHandler(srv, func() int64 { return 0 }))
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	sent := time.Now()
	if _, err := io.WriteString(stalled, "GET /v1/quote?type=r3.xlarge&exec_hours=4 HTTP/1.1\r\nHost: spotbidd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/quote?type=r3.xlarge&exec_hours=4")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote beside a stalled client: status %d: %s", resp.StatusCode, body)
	}

	// The server closes the stalled connection without a response; the
	// client's own deadline, well past the header timeout, must not be
	// what ends the read.
	if err := stalled.SetReadDeadline(sent.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := stalled.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", time.Since(sent))
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled connection got %d bytes, err %v; want a close", n, err)
	}
}
