package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job or cell
// share ID; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory; it is written out once,
// when the run ends. A nil *spanLog records nothing, which is how the
// untraced run calls the same code.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) start(name, id string, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, StartNs: now, EndNs: -1})
	return len(l.spans) - 1
}

// end closes span ix and returns its duration.
func (l *spanLog) end(ix int) time.Duration {
	if l == nil || ix < 0 {
		return 0
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[ix].EndNs = now
	return time.Duration(now - l.spans[ix].StartNs)
}

// add records an already-measured interval given in absolute time.
func (l *spanLog) add(name, id string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent,
		StartNs: start.Sub(l.epoch).Nanoseconds(), EndNs: end.Sub(l.epoch).Nanoseconds()})
	return len(l.spans) - 1
}

// selfTimes sums each span name's self time: its duration minus the part
// covered by its direct children.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.EndNs >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range l.spans {
		if s.EndNs >= 0 {
			out[s.Name] += time.Duration(s.EndNs - s.StartNs - child[i])
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{l.epoch, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
