package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"

	"ajdloss/internal/persist"
	"ajdloss/internal/service"
)

// TestDaemonRecoveryLog pins the boot log lines -data recovery prints, byte
// for byte: one for a cleanly checkpointed dataset (lazy, or materialized
// under -eager-recovery), and for a dataset with a WAL tail past its
// checkpoint one naming the replayed rows plus one counting the records
// that could not be replayed. The daemon is pointed at a taken port, so
// run returns right after recovery without a shutdown checkpoint and both
// boots see the same store.
func TestDaemonRecoveryLog(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(0)
	if _, err := svc.EnableDurability(store); err != nil {
		t.Fatal(err)
	}
	for _, ds := range []struct{ ns, name, csv string }{
		{"default", "clean", "A,B\n1,1\n2,2\n3,3\n"},
		{"t", "pend", "A,B\n1,1\n2,2\n"},
	} {
		if _, err := svc.Registry().RegisterIn(ds.ns, ds.name, strings.NewReader(ds.csv), true); err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range [][][]string{{{"4", "4"}, {"1", "1"}}, {{"5", "5"}}} {
		if _, err := svc.AppendIn("t", "pend", batch, false); err != nil {
			t.Fatal(err)
		}
	}
	// A record of the wrong arity, which replay drops.
	ds, err := store.Dataset("t", "pend")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendWAL(4, [][]string{{"one field"}}); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pending := `recovered dataset "t/pend": 4 rows, generation 3 (checkpoint 1 + 2 WAL rows)
recovered dataset "t/pend": dropped 1 unusable WAL records
`
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{nil, `recovered dataset "clean": 3 rows, generation 1 (lazy: columns decode on first access)
` + pending},
		{[]string{"-eager-recovery"}, `recovered dataset "clean": 3 rows, generation 1 (materialized at boot (-eager-recovery))
` + pending},
	} {
		var stderr bytes.Buffer
		args := append([]string{"-addr", ln.Addr().String(), "-data", dir}, tc.flags...)
		if err := run(context.Background(), args, io.Discard, &stderr, nil); err == nil {
			t.Fatal("bind conflict not reported")
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(stderr.String(), "\n") {
			if strings.HasPrefix(line, "recovered dataset ") {
				got.WriteString(line)
			}
		}
		if got.String() != tc.want {
			t.Errorf("boot log %v:\n got %q\nwant %q", tc.flags, got.String(), tc.want)
		}
	}
}
