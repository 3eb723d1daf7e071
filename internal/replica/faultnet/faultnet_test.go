package faultnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The accept loop counts itself, so every Add below runs while the
	// counter is above zero and cannot race the cleanup's Wait.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln
}

func dialEcho(t *testing.T, d *Dialer, ln net.Listener) net.Conn {
	t.Helper()
	c, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFailDial(t *testing.T) {
	ln := echoServer(t)
	d := &Dialer{Schedule: func(n int) Plan { return Plan{FailDial: n == 0} }}
	if _, err := d.DialContext(context.Background(), "tcp", ln.Addr().String()); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial 0: %v, want ErrInjected", err)
	}
	c := dialEcho(t, d, ln) // dial 1 passes
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatalf("write on clean dial: %v", err)
	}
	if d.Dials() != 2 {
		t.Fatalf("dials: %d, want 2", d.Dials())
	}
}

func TestCutAfterReadTruncatesMidBuffer(t *testing.T) {
	ln := echoServer(t)
	d := &Dialer{Schedule: func(int) Plan { return Plan{CutAfterRead: 5} }}
	c := dialEcho(t, d, ln)
	if _, err := c.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := io.ReadFull(c, buf)
	if n != 5 {
		t.Fatalf("read %d bytes before cut, want 5 (err %v)", n, err)
	}
	if err == nil {
		t.Fatal("read past the cut succeeded")
	}
	// The connection stays dead.
	if _, err := c.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after cut: %v, want ErrInjected", err)
	}
}

func TestCutAfterWriteDeliversTruncatedPrefix(t *testing.T) {
	ln := echoServer(t)
	d := &Dialer{Schedule: func(int) Plan { return Plan{CutAfterWrite: 4} }}
	c := dialEcho(t, d, ln)
	n, err := c.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write: n=%d err=%v, want 4 bytes + ErrInjected", n, err)
	}
}

func TestSeverAll(t *testing.T) {
	ln := echoServer(t)
	d := &Dialer{}
	c := dialEcho(t, d, ln)
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		// First read drains the echo; the second blocks until severed.
		if _, err := c.Read(buf); err != nil {
			done <- err
			return
		}
		_, err := c.Read(buf)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	d.SeverAll()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read survived SeverAll")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked read not released by SeverAll")
	}
}

func TestDelaysApplied(t *testing.T) {
	ln := echoServer(t)
	d := &Dialer{Schedule: func(int) Plan { return Plan{WriteDelay: 30 * time.Millisecond} }}
	c := dialEcho(t, d, ln)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 25*time.Millisecond {
		t.Fatalf("write returned in %v, want >= 30ms delay", took)
	}
}
