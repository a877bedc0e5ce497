package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger is a nil-safe structured logger over log/slog. The nil *Logger
// is a complete no-op, mirroring the telemetry registry contract: library
// code logs unconditionally and stays silent unless a caller wired a
// logger in.
type Logger struct {
	sl  *slog.Logger
	rec *FlightRecorder
}

// NewLogger builds a logger writing slog text lines at or above level to
// w. Every emitted line is also appended to rec (if non-nil) so the
// flight recorder holds the recent log history alongside span ends.
func NewLogger(w io.Writer, level slog.Level, rec *FlightRecorder) *Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	return &Logger{sl: slog.New(h), rec: rec}
}

// ParseLevel maps a CLI flag value ("debug", "info", "warn", "error") to
// a slog level, defaulting to info for anything unrecognized.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Info logs at info level. Nil-safe.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args) }

// Warn logs at warn level. Nil-safe.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args) }

// Error logs at error level. Nil-safe.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args) }

func (l *Logger) log(level slog.Level, msg string, args []any) {
	if l == nil || !l.sl.Enabled(context.Background(), level) {
		return
	}
	l.sl.Log(context.Background(), level, msg, args...)
	l.rec.Add(Event{
		Kind: EventLog,
		Name: strings.ToLower(level.String()),
		Msg:  formatEventMsg(msg, args),
	})
}

// formatEventMsg renders a log call into one flight-recorder string:
// the message followed by key=value pairs.
func formatEventMsg(msg string, args []any) string {
	if len(args) == 0 {
		return msg
	}
	var b strings.Builder
	b.WriteString(msg)
	for i := 0; i+1 < len(args); i += 2 {
		fmt.Fprintf(&b, " %v=%v", args[i], args[i+1])
	}
	if len(args)%2 == 1 {
		fmt.Fprintf(&b, " %v", args[len(args)-1])
	}
	return b.String()
}
