package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSharedFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	j, o, p, s := JSON(fs), Out(fs), Parallel(fs), Seed(fs)
	if err := fs.Parse([]string{"-json", "-out", "x.json", "-parallel", "4", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if !*j || *o != "x.json" || *p != 4 || *s != 7 {
		t.Fatalf("parsed json=%v out=%q parallel=%d seed=%d", *j, *o, *p, *s)
	}
}

func TestSharedFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	j, o, p, s := JSON(fs), Out(fs), Parallel(fs), Seed(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *j || *o != "" || *p != 0 || *s != 1 {
		t.Fatalf("defaults json=%v out=%q parallel=%d seed=%d", *j, *o, *p, *s)
	}
}

// Negative -parallel and -seed underflow/overflow must be usage errors
// at parse time, not silent fall-through to defaults (or wrapped values).
func TestSharedFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(p int, s uint64) bool
	}{
		{"negative parallel", []string{"-parallel", "-1"}, true, nil},
		{"very negative parallel", []string{"-parallel", "-64"}, true, nil},
		{"non-integer parallel", []string{"-parallel", "two"}, true, nil},
		{"float parallel", []string{"-parallel", "1.5"}, true, nil},
		{"zero parallel ok", []string{"-parallel", "0"}, false, func(p int, _ uint64) bool { return p == 0 }},
		{"positive parallel ok", []string{"-parallel", "16"}, false, func(p int, _ uint64) bool { return p == 16 }},
		{"seed underflow", []string{"-seed", "-1"}, true, nil},
		{"seed deep underflow", []string{"-seed", "-18446744073709551615"}, true, nil},
		{"seed overflow", []string{"-seed", "18446744073709551616"}, true, nil},
		{"seed not a number", []string{"-seed", "abc"}, true, nil},
		{"seed zero ok", []string{"-seed", "0"}, false, func(_ int, s uint64) bool { return s == 0 }},
		{"seed max ok", []string{"-seed", "18446744073709551615"}, false, func(_ int, s uint64) bool { return s == 1<<64-1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			p, s := Parallel(fs), Seed(fs)
			err := fs.Parse(tc.args)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Parse(%v) succeeded (parallel=%d seed=%d), want usage error", tc.args, *p, *s)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%v): %v", tc.args, err)
			}
			if !tc.check(*p, *s) {
				t.Errorf("Parse(%v): parallel=%d seed=%d", tc.args, *p, *s)
			}
		})
	}
}

// -http must reject garbage at parse time and accept the documented
// forms, including ":0" for an ephemeral port.
func TestHTTPFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		want    string
	}{
		{"default disabled", nil, false, ""},
		{"explicit empty disables", []string{"-http", ""}, false, ""},
		{"ephemeral port", []string{"-http", ":0"}, false, ":0"},
		{"port only", []string{"-http", ":9090"}, false, ":9090"},
		{"host and port", []string{"-http", "127.0.0.1:8080"}, false, "127.0.0.1:8080"},
		{"ipv6", []string{"-http", "[::1]:8080"}, false, "[::1]:8080"},
		{"no port", []string{"-http", "localhost"}, true, ""},
		{"negative port", []string{"-http", ":-1"}, true, ""},
		{"port overflow", []string{"-http", ":70000"}, true, ""},
		{"non-numeric port", []string{"-http", ":http"}, true, ""},
		{"garbage", []string{"-http", "not an address"}, true, ""},
		{"url not address", []string{"-http", "http://x:1"}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			a := HTTP(fs)
			err := fs.Parse(tc.args)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Parse(%v) accepted %q", tc.args, *a)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%v): %v", tc.args, err)
			}
			if *a != tc.want {
				t.Errorf("Parse(%v) = %q, want %q", tc.args, *a, tc.want)
			}
		})
	}
}

// The registered defaults must render in usage output despite the custom
// flag.Value types.
func TestSharedFlagUsageDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var buf strings.Builder
	fs.SetOutput(&buf)
	Parallel(fs)
	Seed(fs)
	fs.PrintDefaults()
	if out := buf.String(); !strings.Contains(out, "default 1") {
		t.Errorf("usage output missing seed default:\n%s", out)
	}
}

func TestOutput(t *testing.T) {
	w, err := Output("")
	if err != nil {
		t.Fatal(err)
	}
	if w != (nopCloser{os.Stdout}) {
		t.Error("empty path must yield stdout")
	}
	if err := w.Close(); err != nil {
		t.Errorf("stdout close: %v", err)
	}

	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := Output(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "x" {
		t.Errorf("file content %q", b)
	}
}
