package main

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

// TestParseFlagsDeclaresStack: the command line declares the store stack run
// sets in one call — timing always, faults only when a chaos knob is on,
// retries only with -retry-attempts.
func TestParseFlagsDeclaresStack(t *testing.T) {
	for _, c := range []struct {
		args []string
		want repro.Stack
	}{
		{nil, repro.Stack{Instrument: true}},
		{[]string{"-chaos-seed", "7"}, repro.Stack{Instrument: true}},
		{[]string{"-retry-attempts", "3"}, repro.Stack{Retry: &repro.RetryConfig{MaxAttempts: 3}, Instrument: true}},
		{[]string{"-chaos-error-every", "3", "-retry-attempts", "8"}, repro.Stack{
			Fault:      &repro.FaultConfig{ErrorEvery: 3, Seed: 1},
			Retry:      &repro.RetryConfig{MaxAttempts: 8},
			Instrument: true,
		}},
	} {
		o, err := parseFlags(c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !reflect.DeepEqual(o.stack, c.want) {
			t.Errorf("%v: stack %+v, want %+v", c.args, o.stack, c.want)
		}
	}
}

// TestParseFlagsRejectsIgnoredFlags: a flag the selected mode would not act
// on is an error naming it, not a silent no-op.
func TestParseFlagsRejectsIgnoredFlags(t *testing.T) {
	shard := []string{"-shard-listen", ":0", "-shard-count", "2"}
	for _, c := range []struct {
		args []string
		want string // substring of the error; "" means the flags are accepted
	}{
		{args: nil},
		{args: []string{"-retry-attempts", "3", "-retry-base", "1ms", "-retry-timeout", "1s"}},
		{args: []string{"-chaos-delay-rate", "0.5", "-chaos-delay", "1ms", "-chaos-seed", "7"}},
		{args: []string{"-mvcc", "-chaos-error-every", "3"}},
		{args: shard},
		{args: []string{"-shards", "a:1,b:2", "-shard-pool", "2"}},
		{args: []string{"-mvcc", "-layout", "x.wvls"}},
		{args: append([]string{"-layout", "x.wvls"}, shard...)},

		{[]string{"-retry-base", "1ms"}, "-retry-base/-retry-timeout only apply with -retry-attempts"},
		{[]string{"-retry-timeout", "1s"}, "-retry-base/-retry-timeout only apply with -retry-attempts"},
		{[]string{"-chaos-delay", "1ms"}, "-chaos-delay only applies with -chaos-delay-rate"},
		{[]string{"-chaos-delay", "1ms", "-chaos-error-rate", "0.1"}, "-chaos-delay only applies with -chaos-delay-rate"},
		{append([]string{"-retry-attempts", "3"}, shard...), "no retry or chaos layer; drop -retry-attempts"},
		{append([]string{"-chaos-seed", "1"}, shard...), "no retry or chaos layer; drop -chaos-seed"},
		{append([]string{"-chaos-error-rate", "0.1", "-retry-attempts", "2"}, shard...), "drop -chaos-error-rate, -retry-attempts"},

		{append([]string{"-shards", "a:1,b:2"}, shard...), "mutually exclusive"},
		{[]string{"-layout", "x.wvls", "-shards", "a:1"}, "a coordinator (-shards) reads none"},
		{[]string{"-slow-query", "-1s"}, "-slow-query must be non-negative"},
		{append([]string{"-slow-query", "1s"}, shard...), "not -shard-listen"},
		{[]string{"-shard-index", "1"}, "only apply with -shard-listen"},
		{[]string{"-shard-pool", "2"}, "only apply with -shards"},
		{[]string{"-mvcc", "-shards", "a:1"}, "-mvcc serves a local database file"},
		{[]string{"-mvcc-retain", "4"}, "only apply with -mvcc"},
		{[]string{"-shard-listen", ":0", "-shard-count", "3"}, "-shard-count"},
		{[]string{"-shard-listen", ":0", "-shard-count", "2", "-shard-index", "2"}, "out of range"},
		{[]string{"-shards", "a:1,,b:2"}, "empty address"},
		{[]string{"-shards", "a:1,b:2,c:3"}, "-shards"},
	} {
		_, err := parseFlags(c.args)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: err = %v, want it to contain %q", c.args, err, c.want)
		}
	}
}
