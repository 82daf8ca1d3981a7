package telemetry

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"nsdfgo/internal/telemetry/flight"
)

// TestServeUntilSignalListenFailure: with the address already bound the
// server cannot start; ServeUntilSignal must hand the listen error back
// to main and still dump the flight recorder through the logger, or the
// anomalies recorded so far die with the process.
func TestServeUntilSignalListenFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	fl := flight.New(8)
	fl.Record(flight.KindShed, "0123456789abcdef0123456789abcdef", "queue_full tenant=%s", "t1")

	srv := &http.Server{Addr: taken.Addr().String(), Handler: http.NotFoundHandler()}
	err = ServeUntilSignal(context.Background(), srv, logger, fl)
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("ServeUntilSignal on a bound address = %v, want the listen error", err)
	}
	out := logs.String()
	for _, want := range []string{"flight recorder dump", "kind=shed", "queue_full tenant=t1"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output lacks %q:\n%s", want, out)
		}
	}
}
