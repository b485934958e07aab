package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

type loggerCtxKey struct{}

// ContextWithLogger attaches a request-scoped logger (typically one carrying
// request_id/trace_id attrs) to ctx; LoggerFromContext retrieves it anywhere
// downstream so every log line of that request stays greppable by ID.
func ContextWithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerCtxKey{}, l)
}

// LoggerFromContext returns the logger attached by ContextWithLogger, or
// slog.Default() when none is.
func LoggerFromContext(ctx context.Context) *slog.Logger {
	if ctx != nil {
		if l, ok := ctx.Value(loggerCtxKey{}).(*slog.Logger); ok && l != nil {
			return l
		}
	}
	return slog.Default()
}

// LogOptions carries the shared logging flags every cmd/ binary registers:
//
//	-log-level debug|info|warn|error   (default info)
//	-log-json                          (structured JSON instead of text)
//
// Register with RegisterLogFlags before flag.Parse, then Setup once parsed.
type LogOptions struct {
	Level string
	JSON  bool
}

// RegisterLogFlags binds the shared logging flags onto fs (use
// flag.CommandLine in main) and returns the options they fill.
func RegisterLogFlags(fs *flag.FlagSet) *LogOptions {
	o := &LogOptions{}
	fs.StringVar(&o.Level, "log-level", "info", "log level: debug | info | warn | error")
	fs.BoolVar(&o.JSON, "log-json", false, "emit structured JSON logs (default: human-readable text)")
	return o
}

// ParseLevel maps a flag string onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// Setup installs the process-wide slog default logger (writing to stderr)
// per the parsed flags. Call it right after flag.Parse.
func (o *LogOptions) Setup() error {
	return SetupLogs(os.Stderr, o.Level, o.JSON)
}

// SetupLogs installs a slog default logger on w at the given level,
// structured JSON when jsonOut is set.
func SetupLogs(w io.Writer, level string, jsonOut bool) error {
	lv, err := ParseLevel(level)
	if err != nil {
		return err
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	slog.SetDefault(slog.New(h))
	return nil
}
