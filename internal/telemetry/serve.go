package telemetry

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nsdfgo/internal/telemetry/flight"
)

// ServeUntilSignal runs srv until it fails, the process is told to stop
// (SIGINT/SIGTERM) or ctx is cancelled, then drains connections for up
// to five seconds and dumps the flight recorder — the anomaly ring's
// last chance to reach the logs. ctx is the caller's root context: a
// library may not mint its own (ctxbackground), and the drain deadline
// derives from it.
func ServeUntilSignal(ctx context.Context, srv *http.Server, logger *slog.Logger, fl *flight.Recorder) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fl.Dump(logger)
		return err
	case sig := <-stop:
		logger.Info("shutting down", slog.String("signal", sig.String()))
	case <-ctx.Done():
		logger.Info("shutting down", slog.String("cause", ctx.Err().Error()))
	}
	fl.Dump(logger)
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	return srv.Shutdown(drain)
}

// ServePprof runs the opt-in profiling listener until it fails. It is a
// separate server so the profiler is never reachable from a
// data-serving port.
func ServePprof(logger *slog.Logger, addr string) {
	logger.Info("pprof listening", slog.String("addr", addr), slog.String("path", "/debug/pprof/"))
	srv := &http.Server{
		Addr:              addr,
		Handler:           PprofMux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		logger.Error("pprof server failed", slog.String("error", err.Error()))
	}
}
