package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// serveLocal runs serveUntil on a loopback port; cancel stops it, and
// served then yields what it returned.
func serveLocal(t *testing.T, h http.Handler) (addr string, cancel context.CancelFunc, served <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, ln, h) }()
	return ln.Addr().String(), cancel, done
}

// A client that sends half a request header and stalls is cut off once
// the header timeout passes, instead of holding its connection forever.
func TestHalfSentHeaderIsCut(t *testing.T) {
	addr, cancel, served := serveLocal(t, http.NotFoundHandler())
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: smqd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a half-sent header", time.Since(start))
	}
	if el := time.Since(start); el < readHeaderTimeout {
		t.Fatalf("connection cut after %v, before the %v header timeout (%v)", el, readHeaderTimeout, err)
	}
}

// Shutdown stops accepting connections but lets a request already in
// its handler finish and be answered.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	addr, cancel, served := serveLocal(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	}))
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-entered
	cancel()
	// Release the handler only once shutdown has closed the listener.
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	close(release)
	if body := <-got; body != "drained" {
		t.Fatalf("in-flight request got %q, want its response", body)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
