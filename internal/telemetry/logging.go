package telemetry

import (
	"fmt"
	"io"
	"log/slog"
)

// This file is the serving stack's structured-logging seam: every
// operational line the cmd/ servers emit — startup, periodic summaries,
// slow-request warnings, shutdown errors — goes through a *slog.Logger
// built here, selectable between human text and machine JSON with the
// -log-format flag. Attributes (trace ID, dataset, duration) ride as
// structured fields instead of being baked into format strings.

// LogFormats lists the accepted -log-format values.
const (
	LogFormatText = "text"
	LogFormatJSON = "json"
)

// NewLogger builds a slog logger writing to w in the given format
// ("text" or "json"). An unknown format is an error so a typo in
// -log-format fails startup instead of silently switching encodings.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case LogFormatText, "":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case LogFormatJSON:
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want %s or %s)", format, LogFormatText, LogFormatJSON)
	}
}
