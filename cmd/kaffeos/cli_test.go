package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
)

// kaffeosBin is the command under test, built once by TestMain so each
// test drives the shipped binary: flags, stdout/stderr split, exit code.
var kaffeosBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kaffeos-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	kaffeosBin = filepath.Join(dir, "kaffeos")
	goTool, err := exec.LookPath("go")
	if err == nil {
		var out []byte
		out, err = exec.Command(goTool, "build", "-o", kaffeosBin, ".").CombinedOutput()
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, out)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "building kaffeos: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the built command and returns its stdout, stderr and exit
// code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(kaffeosBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("kaffeos %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), code
}

// golden compares got with testdata/name byte for byte.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The fault-injection sweep is deterministic: same seeds, same fault
// summaries, same audits, at any GOMAXPROCS. Every seed audits clean and
// consults membal.rebalance at least once. Regenerate the golden file
// with `go run ./cmd/kaffeos check -seeds 32 > cmd/kaffeos/testdata/check32.golden`
// only when a change means to move the sweep.
func TestCheckSweepGolden(t *testing.T) {
	stdout, stderr, code := runCLI(t, "check", "-seeds", "32")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	golden(t, "check32.golden", stdout)
	seeds := regexp.MustCompile(`(?m)^seed +\d+: .* membal\.rebalance=\d+/[1-9]\d* .*: OK$`)
	if n := len(seeds.FindAllString(stdout, -1)); n != 32 {
		t.Errorf("%d of 32 seeds audit OK after consulting membal.rebalance", n)
	}
}

// run -stats prints one proc and one gc-pause line per process, then the
// kernel-wide lines, all in simulated cycles, so the report is exact.
func TestRunStatsGolden(t *testing.T) {
	stdout, stderr, code := runCLI(t, "run", "-stats", "testdata/alloc.kasm")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if stdout != "allocated\n" {
		t.Errorf("stdout = %q", stdout)
	}
	golden(t, "alloc-stats.golden", stderr)
}

// Each program file reports how its process ended: "exited (result N)"
// with an int entry method's return value, plain "exited" for a void
// entry, or "died: <class>" with the uncaught throwable, which also makes
// the run exit 1.
func TestRunReportsResultAndDeath(t *testing.T) {
	const fib = "../../examples/programs/fib.kasm" // main()V: no result
	_, stderr, code := runCLI(t, "run", "-mem", "512", "testdata/alloc.kasm", fib, "testdata/hog.kasm")
	want := "kaffeos: testdata/alloc.kasm: exited (result 3000)\n" +
		"kaffeos: " + fib + ": exited\n" +
		"kaffeos: testdata/hog.kasm: died: java/lang/OutOfMemoryError\n"
	if stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	if code != 1 {
		t.Errorf("exit %d, want 1: a process died", code)
	}
}

// dis prints a module in the assembler's format (bytecode.DisassembleModule).
func TestDisGolden(t *testing.T) {
	stdout, stderr, code := runCLI(t, "dis", "testdata/alloc.kasm")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	golden(t, "alloc-dis.golden", stdout)
}

// run and serve take the same engine names, and run takes every write
// barrier with each of them. An unknown name fails with one "kaffeos:"
// prefix.
func TestEngineAndBarrierNames(t *testing.T) {
	for _, engine := range []string{"interp", "interp-spill", "jit-opt"} {
		for _, bar := range []string{"NoWriteBarrier", "HeapPointer", "NoHeapPointer", "FakeHeapPointer"} {
			_, stderr, code := runCLI(t, "run", "-engine", engine, "-barrier", bar, "testdata/alloc.kasm")
			if code != 0 || stderr != "kaffeos: testdata/alloc.kasm: exited (result 3000)\n" {
				t.Errorf("run -engine %s -barrier %s: exit %d\n%s", engine, bar, code, stderr)
			}
		}
		t.Run("serve/"+engine, func(t *testing.T) { serveUntilInterrupt(t, engine) })
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-engine", "warp", "testdata/alloc.kasm"}, `unknown engine "warp"`},
		{[]string{"serve", "-engine", "warp", "-addr", "127.0.0.1:0", "-routes", "/zone0", "-shards", "1"}, `unknown engine "warp"`},
		{[]string{"run", "-barrier", "psychic", "testdata/alloc.kasm"}, `unknown write barrier "psychic"`},
	} {
		_, stderr, code := runCLI(t, tc.args...)
		if code != 1 || !strings.HasPrefix(stderr, "kaffeos: ") ||
			strings.Count(stderr, "kaffeos:") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("kaffeos %s: exit %d, stderr %q; want exit 1 and one kaffeos: prefix on %s",
				strings.Join(tc.args, " "), code, stderr, tc.want)
		}
	}
}

// serveUntilInterrupt starts a one-route plane on engine, waits until it
// serves, interrupts it, and checks it shut down with a clean audit.
func serveUntilInterrupt(t *testing.T, engine string) {
	cmd := exec.Command(kaffeosBin, "serve", "-engine", engine,
		"-addr", "127.0.0.1:0", "-routes", "/zone0", "-shards", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer deadline.Stop()
	var log strings.Builder
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		log.WriteString(lines.Text() + "\n")
		if strings.Contains(lines.Text(), "serving on") {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err != nil || !strings.Contains(log.String(), "post-shutdown audit ok") {
		t.Errorf("serve -engine %s: %v\n%s", engine, err, log.String())
	}
}

// The entry rule: without -main, the first class with a static main()V or
// main()I; with -main, that class's first static main()V, main()I, run()I
// or run()V.
func TestFindMain(t *testing.T) {
	mod := bytecode.MustAssemble(`
.class app/Helper
.method run ()I static
.locals 0
.stack 1
	iconst 9
	ireturn
.end
.end
.class app/Worker
.method run ()V
.locals 1
.stack 0
	return
.end
.end
.class app/Main
.method main ()I static
.locals 0
.stack 1
	iconst 1
	ireturn
.end
.method main ()V static
.locals 0
.stack 0
	return
.end
.end
.class app/None
.end`)
	for _, tc := range []struct{ class, wantCls, wantKey string }{
		{"", "app/Main", "main()V"},
		{"app/Main", "app/Main", "main()V"},
		{"app/Helper", "app/Helper", "run()I"},
		{"app/Worker", "", ""}, // run()V is not static
		{"app/None", "", ""},
		{"app/Missing", "", ""},
	} {
		cls, key, err := findMain(mod, tc.class)
		if cls != tc.wantCls || key != tc.wantKey || (err == nil) != (tc.wantKey != "") {
			t.Errorf("findMain(%q) = %q, %q, %v; want %q, %q", tc.class, cls, key, err, tc.wantCls, tc.wantKey)
		}
	}
	if _, _, err := findMain(bytecode.MustAssemble(".class app/None\n.end"), ""); err == nil {
		t.Error("found an entry point in a module without main")
	}
}
