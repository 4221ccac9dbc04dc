// Command bench is the served-path benchmark: it stands the real serving
// stack up in-process, drives it over loopback TCP with five workloads, and
// reports what a client of the service would see; run with -trace 1 it peels
// the stack level by level and reports what each layer costs instead. See
// README.md in this directory for the metrics and how to compare two runs.
//
//	go run ./bench                                  every workload, bench/out/result.json
//	go run ./bench -trace 1                         every workload traced, bench/out/trace_*.json
//	go run ./bench -repeat 3                        three runs each, medians and quartiles
//	go run ./bench -compare old.json new.json       judge new against old, exit 1 if worse
//	go run ./bench -workload put_batch -seed 7 ...  one workload in this process (what BENCHMARK.json runs)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process, and end with one JSON line")
		seed    = flag.Int64("seed", 1, "seed of the generated op streams")
		seconds = flag.Float64("seconds", 10, "length of each workload's measured phase")
		trace   = flag.Int("trace", 0, "1 for the traced run: peel the stack and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "runs of each workload; -compare judges by their medians and quartiles")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and the span files")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.StringVar(&poolsFlag, "pools", "", "directory to make pool directories in (default /dev/shm, else bench/out)")
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatal(2, "unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1):
		fatal(2, "-seconds and -repeat must be positive and -trace 0 or 1")
	case *name != "":
		os.Exit(runOne(*name, *seed, *seconds, *trace == 1, *outDir))
	default:
		os.Exit(runSuite(*seed, *seconds, *trace, *repeat, *outDir))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// runOne runs one workload in this process. Every metric goes out as
// "<workload> <metric> <value> <unit>"; the last line is the outcome as JSON.
// The exit code is 0 only if every output checked out.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) int {
	w, ok := findWorkload(name)
	if !ok {
		fatal(2, "unknown workload %q", name)
	}
	// A signal must not leave a pool directory behind in /dev/shm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		root, _ := poolRoot()
		mine, _ := filepath.Glob(filepath.Join(root, poolDirPrefix+strconv.Itoa(os.Getpid())+"-*"))
		for _, d := range mine {
			os.RemoveAll(d)
		}
		os.Exit(130)
	}()
	o := defaultOpts(seed, seconds)
	var (
		out  *outcome
		err  error
		defs = endToEnd
	)
	if traced {
		defs = perLayer
		out, err = runTraced(w, o, outDir)
	} else {
		out, err = runWorkload(w, o)
	}
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", w.name, d.Name, formatValue(out.Metrics[d.Name].Value), d.Unit)
	}
	for _, l := range out.extra {
		fmt.Printf("%s %s %s %s\n", w.name, l.name, formatValue(l.value), l.unit)
	}
	for _, f := range out.findings {
		fmt.Fprintf(os.Stderr, "bench: %s: finding: %s\n", w.name, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: outputs were wrong: %d of %d operations failed or acked writes were lost\n",
			w.name, out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// resultFile is what a suite run leaves in result.json and what -compare
// reads.
type resultFile struct {
	Host    hostInfo    `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

type hostInfo struct {
	NProc       int    `json:"nproc"`
	Connections int    `json:"connections"`
	Go          string `json:"go"`
	PoolFS      string `json:"pool_fs"`
}

// runRecord is one run of one workload: its outcome, plus every line it
// printed (the metrics, the sample counts, failed_op_ratio and
// lost_acked_writes) by name.
type runRecord struct {
	Workload  string           `json:"workload"`
	Run       int              `json:"run"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Values    map[string]value `json:"values"`
}

// runSuite runs every workload repeat times, each run in a subprocess of its
// own so that set-up time, peak RSS and CPU are the workload's alone.
func runSuite(seed int64, seconds float64, trace, repeat int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	_, fs := poolRoot()
	res := resultFile{
		Host: hostInfo{NProc: runtime.NumCPU(), Connections: connections(), Go: runtime.Version(), PoolFS: fs},
		Seed: seed, Seconds: seconds, Trace: trace,
	}
	code := 0
	for _, w := range workloads(connections()) {
		for run := 1; run <= repeat; run++ {
			rec, err := runChild(self, w.name, seed, seconds, trace, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			rec.Run = run
			res.Runs = append(res.Runs, rec)
			if !rec.Correct {
				code = 1
			}
		}
	}
	if repeat > 1 {
		printSpread(res)
	}
	file := "result.json"
	if trace == 1 {
		file = "result_trace.json"
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, file), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal(1, "%v", err)
	}
	return code
}

// runChild runs one workload in a subprocess, passing its metric lines
// through and collecting them.
func runChild(self, name string, seed int64, seconds float64, trace int, outDir string) (runRecord, error) {
	rec := runRecord{Workload: name, Values: map[string]value{}}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", formatValue(seconds), "-trace", strconv.Itoa(trace), "-out", outDir, "-pools", poolsFlag)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rec, err
	}
	if err := cmd.Start(); err != nil {
		return rec, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == name {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				rec.Values[f[1]] = value{v, f[3]}
				fmt.Println(last)
			}
		}
	}
	// A wrong output makes the child exit 1 after it has printed its
	// outcome; only a child that printed none has failed to run.
	werr := cmd.Wait()
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		if werr != nil {
			return rec, werr
		}
		return rec, fmt.Errorf("no outcome line: %w", err)
	}
	rec.Correct, rec.Attempted, rec.Failed = out.Correct, out.Attempted, out.Failed
	return rec, nil
}
