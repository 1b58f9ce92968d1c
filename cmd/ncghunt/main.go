// Command ncghunt runs sharded counterexample-hunt campaigns: a grid of
// instance samplers crossed with game variants, every (sampler, variant,
// instance) searched for a best-response cycle on the interned state-store
// explorer. Records stream to JSONL (hits carry the canonical start
// network and the cycle trace) and an interrupted campaign resumes from
// the partial file, re-searching only the missing instances. Results are
// bit-identical at any worker count.
//
// Usage:
//
//	ncghunt grid
//	ncghunt run [-samplers a,b] [-variants x,y] [-n n] [-instances k]
//	            [-seed s] [-max-states m] [-max-hits h]
//	            [-workers w] [-shard s] [-jsonl path] [-progress]
//	            [-cpuprofile path] [-memprofile path]
//	ncghunt resume -jsonl path [same flags as run]
//	ncghunt serve -dir path [-addr host:port] [campaign flags]
//	ncghunt work -url http://host:port [campaign flags]
//	ncghunt watch -url http://host:port [-cursor tok]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/cli"
	"ncg/internal/coord"
	"ncg/internal/dynamics"
)

const usage = `ncghunt — sharded counterexample-hunt campaigns

Usage:
  ncghunt grid
      List the built-in instance samplers and game variants (the grid
      axes of a campaign).

  ncghunt run [flags]
      Hunt best-response cycles over the samplers x variants grid:
        -samplers a,b  comma-separated sampler names (default: all)
        -variants x,y  comma-separated variant names (default: all
                       built-ins; rounds-* variants hunt played round
                       trajectories instead of the state graph)
        -schedule s    override every selected variant's search schedule
                       (sequential, rounds, rounds-shuffled, rounds-skip,
                       rounds-reject)
        -backend b     adjacency backend of round-trajectory variants
                       (auto, dense, sparse; bit-identical either way)
        -oracle o      distance oracle of round-trajectory variants (auto,
                       exact, landmark, landmark:k; landmark records are
                       bit-identical to exact)
        -n n           agent count for sized samplers (default 10)
        -instances k   instances per grid cell (default 100)
        -seed s        base seed (every instance derives its own stream)
        -max-states m  per-instance state cap (default 20000)
        -max-hits h    stop after h hits (0 = search every instance)
        -workers w     worker goroutines (0 = GOMAXPROCS; never changes
                       results)
        -shard s       instances per shard (0 = auto; never changes
                       results)
        -jsonl path    stream per-instance records to this JSONL file
        -progress      print per-shard progress to stderr
        -cpuprofile path  write a CPU profile of the run (go tool pprof;
                          also on resume, serve and work)
        -memprofile path  write a heap profile taken after the run

  ncghunt resume -jsonl path [flags]
      Continue an interrupted campaign from a partial JSONL file,
      re-searching only the instances the file does not fully record.
      Give the same flags as the original run.

  ncghunt serve -dir path [flags]
      Serve the campaign as a fault-tolerant lease-based coordinator:
      workers (ncghunt work) lease shards over HTTP, crashed workers'
      shards re-lease on expiry, and the merged record stream in
      <dir>/records.jsonl is byte-identical to a single-process run.
      The directory is resumable: restarting serve on it continues from
      the manifest. The process also serves /healthz, /readyz and the
      live result stream at /v1/stream (cursor-resumable long-poll or
      SSE with slow-client eviction and admission control); the campaign
      is additionally routed at /c/<name>/v1/... for multi-campaign
      tooling. Campaign flags as in run, plus:
        -addr host:port   listen address (default 127.0.0.1:8777)
        -shard s          instances per shard (default 64)
        -lease-ttl d      heartbeat-renewed lease expiry (default 30s)
        -name id          hosted campaign name (default hunt)
        -stream-clients n max concurrent /v1/stream clients (default 64;
                          extra clients get 503 + Retry-After)
        -log-every d      period of status lines on stderr with queue
                          depth and worker-count autoscaling hints
                          (default 30s; 0 disables)

  ncghunt work -url http://host:port [flags]
      Run a worker against a coordinator. Give the same campaign flags
      as the serve side (the fingerprint handshake rejects drift), plus:
        -name id  worker name in leases and logs

  ncghunt watch -url http://host:port [flags]
      Follow a coordinator's live result stream, writing records to
      stdout as they commit. The stream is always a byte-prefix of the
      campaign's final records.jsonl; reconnects and coordinator
      restarts are survived by resuming from the last acked cursor.
        -cursor tok  resume a previous watch exactly after its last
                     acked byte (printed on interrupt)
        -wait d      long-poll window per request (default 5s)
        -max n       chunk byte cap per poll (0 = server default)

All subcommands stop gracefully on SIGINT/SIGTERM: run and resume
checkpoint to -jsonl and exit 130 (resume continues them), work finishes
its current instance and releases its lease, serve shuts the listener
down with the manifest intact, watch prints the resume cursor for the
next watch to continue from.

Run "ncghunt grid" to see the available samplers and variants.
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app wraps the shared CLI scaffolding (internal/cli): Fail/Errorf abort
// with the right exit code from any depth while run stays testable.
type app struct {
	*cli.App
}

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("ncghunt", usage, stdout, stderr, func(ca *cli.App) {
		(&app{ca}).main(args)
	})
}

func (a *app) main(args []string) {
	if len(args) < 1 {
		a.Fail("no subcommand")
	}
	switch args[0] {
	case "grid":
		a.cmdGrid(args[1:])
	case "run":
		a.cmdRun(args[1:], false)
	case "resume":
		a.cmdRun(args[1:], true)
	case "serve":
		a.cmdServe(args[1:])
	case "work":
		a.cmdWork(args[1:])
	case "watch":
		a.cmdWatch(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Fprint(a.Stdout, usage)
	default:
		a.Fail("unknown subcommand %q", args[0])
	}
}

func (a *app) cmdGrid(args []string) {
	if len(args) > 0 {
		a.Fail("grid takes no arguments")
	}
	tw := tabwriter.NewWriter(a.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SAMPLER\tNOTES")
	for _, smp := range campaign.BuiltinSamplers() {
		notes := "sized by -n"
		switch {
		case smp.Name == "cycle-pendant":
			notes = "self-sizing (cycle of length 6..13 with pendant paths)"
		case smp.CheckN != nil:
			notes = "sized by -n (validated)"
		}
		fmt.Fprintf(tw, "%s\t%s\n", smp.Name, notes)
	}
	fmt.Fprintln(tw, "\nVARIANT\tGAME\tSEARCH")
	for _, v := range append(campaign.BuiltinVariants(), campaign.RoundVariants()...) {
		search := "state-graph exploration"
		if v.Schedule != nil {
			search = v.Schedule.Name() + " trajectory"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", v.Name, v.New(10).Name(), search)
	}
	tw.Flush()
}

// campaignFlags holds the grid-definition flags shared by run, resume,
// serve and work: everything that shapes the campaign itself (and hence
// its fingerprint), as opposed to how it is executed.
type campaignFlags struct {
	samplers, variants, schedule, oracle string
	backend                              string
	n, instances, maxStates              int
	seed                                 int64
}

func (cf *campaignFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&cf.samplers, "samplers", "", "comma-separated sampler names (default: all)")
	fs.StringVar(&cf.variants, "variants", "", "comma-separated variant names (default: all built-ins)")
	fs.StringVar(&cf.schedule, "schedule", "", "override every selected variant's search schedule")
	fs.StringVar(&cf.oracle, "oracle", "auto", "distance oracle of round-trajectory variants")
	fs.StringVar(&cf.backend, "backend", "auto", "adjacency backend of round-trajectory variants")
	fs.IntVar(&cf.n, "n", 10, "agent count for sized samplers")
	fs.IntVar(&cf.instances, "instances", 100, "instances per grid cell")
	fs.Int64Var(&cf.seed, "seed", 1, "base seed")
	fs.IntVar(&cf.maxStates, "max-states", 20000, "per-instance state cap")
}

// build validates the flags and assembles the campaign. Every flag
// combination error is a usage error, never a worker panic.
func (cf *campaignFlags) build(a *app) campaign.Campaign {
	switch {
	case cf.instances <= 0:
		a.Fail("-instances must be positive, got %d", cf.instances)
	case cf.maxStates <= 0:
		a.Fail("-max-states must be positive, got %d", cf.maxStates)
	case cf.n < 1:
		a.Fail("-n must be >= 1, got %d", cf.n)
	}
	oracle, err := dynamics.ParseOracleSpec(cf.oracle)
	if err != nil {
		a.Fail("%v", err)
	}
	backend, err := dynamics.ParseBackendSpec(cf.backend)
	if err != nil {
		a.Fail("%v", err)
	}
	return campaign.Campaign{
		Name:      "ncghunt",
		Samplers:  a.pickSamplers(cf.samplers, cf.n),
		Variants:  a.pickVariants(cf.variants, cf.schedule, oracle, backend),
		N:         cf.n,
		Instances: cf.instances,
		Seed:      cf.seed,
		MaxStates: cf.maxStates,
	}
}

func (a *app) cmdRun(args []string, resume bool) {
	sub := "run"
	if resume {
		sub = "resume"
	}
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	var cf campaignFlags
	cf.register(fs)
	maxHits := fs.Int("max-hits", 0, "stop after this many hits (0 = all)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	shard := fs.Int("shard", 0, "instances per shard (0 = auto)")
	jsonlPath := fs.String("jsonl", "", "stream per-instance records to this JSONL file")
	progress := fs.Bool("progress", false, "print per-shard progress to stderr")
	var prof cli.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	switch {
	case *maxHits < 0:
		a.Fail("-max-hits must be >= 0, got %d", *maxHits)
	case *workers < 0:
		a.Fail("-workers must be >= 0, got %d", *workers)
	case *shard < 0:
		a.Fail("-shard must be >= 0, got %d", *shard)
	case resume && *jsonlPath == "":
		a.Fail("resume needs -jsonl")
	}
	c := cf.build(a)

	ctx, stop := cli.SignalContext(a.Stderr, "ncghunt")
	defer stop()
	defer prof.Start(a.App)()
	opt := campaign.Options{
		MaxHits:   *maxHits,
		Workers:   *workers,
		ShardSize: *shard,
		Context:   ctx,
	}
	if *progress {
		opt.Progress = func(p campaign.Progress) {
			fmt.Fprintf(a.Stderr, "  %s/%s [%d,%d): %d searched, %d hits (%d/%d shards)\n",
				p.Sampler, p.Variant, p.Lo, p.Hi, p.Searched, p.Hits, p.Done, p.Shards)
		}
	}

	var sinks []campaign.Sink
	if *jsonlPath != "" {
		if resume {
			cp, sink, err := campaign.ResumeJSONL(*jsonlPath)
			if err != nil {
				a.Errorf("%v", err)
			}
			fmt.Fprintf(a.Stderr, "ncghunt: resuming, %d instances recovered from %s\n", cp.Len(), *jsonlPath)
			opt.Done = cp
			sinks = append(sinks, sink)
		} else {
			sink, err := campaign.CreateJSONL(*jsonlPath)
			if err != nil {
				a.Errorf("%v", err)
			}
			sinks = append(sinks, sink)
		}
	}
	var hits []campaign.Record
	sinks = append(sinks, campaign.FuncSink(func(rec campaign.Record) error {
		if rec.Hit {
			hits = append(hits, rec)
		}
		return nil
	}))

	sum, err := campaign.Run(c, opt, sinks...)
	if errors.Is(err, context.Canceled) {
		// Interrupted at an instance boundary: the sinks flushed a clean
		// resumable prefix before Run returned.
		if *jsonlPath != "" {
			fmt.Fprintf(a.Stderr, "ncghunt: interrupted; continue with: ncghunt resume -jsonl %s [same flags]\n", *jsonlPath)
		} else {
			fmt.Fprintln(a.Stderr, "ncghunt: interrupted (rerun with -jsonl to make runs resumable)")
		}
		cli.Exit(cli.SignalExitCode)
	}
	if err != nil {
		a.Errorf("%v", err)
	}

	tw := tabwriter.NewWriter(a.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sampler\tvariant\tinstances\tsearched\tresamples\thits\tavg states")
	for _, cl := range sum.Cells {
		avg := 0.0
		if cl.Searched > 0 {
			avg = float64(cl.SumStates) / float64(cl.Searched)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.0f\n",
			cl.Sampler, cl.Variant, cl.Instances, cl.Searched, cl.Resamples, cl.Hits, avg)
	}
	tw.Flush()
	fmt.Fprintf(a.Stdout, "\n%d instances searched, %d hits\n", sum.Searched, sum.Hits)
	for _, rec := range hits {
		fc, err := rec.DecodeCycle()
		if err != nil {
			a.Errorf("hit %s/%s #%d: %v", rec.Sampler, rec.Variant, rec.Instance, err)
		}
		fmt.Fprintf(a.Stdout, "HIT %s/%s instance %d (n=%d, %d states): %d-move best response cycle\n",
			rec.Sampler, rec.Variant, rec.Instance, rec.N, rec.States, len(fc.Moves))
		for _, m := range fc.Moves {
			fmt.Fprintf(a.Stdout, "  %v\n", m)
		}
	}
}

// cmdServe runs the lease-based campaign coordinator: the fault-tolerant
// service form of run, for campaigns spanning many worker processes or
// machines. The campaign is hosted in a Registry so the process carries
// the full service surface — /healthz, /readyz, /v1/campaigns and the
// campaign-scoped /c/<name>/v1/... routes — while the flat /v1/...
// routes keep pointing at the (single) hosted campaign.
func (a *app) cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	var cf campaignFlags
	cf.register(fs)
	dir := fs.String("dir", "", "coordinator state directory (manifest, shard files, merged records)")
	addr := fs.String("addr", "127.0.0.1:8777", "listen address")
	shard := fs.Int("shard", 0, "instances per shard (0 = 64)")
	leaseTTL := fs.Duration("lease-ttl", 0, "heartbeat-renewed lease expiry (0 = 30s)")
	name := fs.String("name", "hunt", "hosted campaign name (routes under /c/<name>/)")
	streamClients := fs.Int("stream-clients", 0, "max concurrent /v1/stream clients (0 = 64)")
	logEvery := fs.Duration("log-every", 30*time.Second, "period of status lines with autoscaling hints (0 = off)")
	var prof cli.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	if *dir == "" {
		a.Fail("serve needs -dir")
	}
	if *shard < 0 {
		a.Fail("-shard must be >= 0, got %d", *shard)
	}
	if *streamClients < 0 {
		a.Fail("-stream-clients must be >= 0, got %d", *streamClients)
	}
	if *logEvery < 0 {
		a.Fail("-log-every must be >= 0, got %v", *logEvery)
	}
	// Install the signal seam before anything is announced on stdout so a
	// SIGINT arriving the instant the service is observable is already a
	// graceful stop, never a mid-write kill.
	ctx, stop := cli.SignalContext(a.Stderr, "ncghunt")
	defer stop()
	defer prof.Start(a.App)()

	logf := func(format string, args ...any) {
		fmt.Fprintf(a.Stderr, format+"\n", args...)
	}
	reg := coord.NewRegistry(coord.RegistryConfig{Logf: logf})
	defer reg.Close()
	c, err := reg.Add(*name, coord.Config{
		Campaign:         cf.build(a),
		Dir:              *dir,
		ShardSize:        *shard,
		LeaseTTL:         *leaseTTL,
		MaxStreamClients: *streamClients,
		Logf:             logf,
	})
	if err != nil {
		a.Errorf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		a.Errorf("%v", err)
	}
	st := c.Status()
	fmt.Fprintf(a.Stdout, "ncghunt: serving campaign %s as %q on %s (%d shards, %d done)\n",
		st.Fingerprint, *name, ln.Addr(), st.Shards, st.Done)
	srv := &http.Server{Handler: reg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Periodic status lines double as autoscaling hints: queue depth and
	// want-workers tell an operator (or a wrapper script) how many ncghunt
	// work processes the backlog currently justifies.
	cli.Periodically(ctx, *logEvery, func() {
		st := c.Status()
		fmt.Fprintf(a.Stderr,
			"ncghunt: status queue=%d done=%d/%d workers=%d want=%d stream: %d clients, %d bytes, %d evicted, %d refused\n",
			st.QueueDepth, st.Done, st.Shards, st.ActiveWorkers, st.WantWorkers,
			st.StreamClients, st.StreamBytes, st.StreamEvicted, st.StreamRefused)
	})

	interrupted := false
	select {
	case <-c.Done():
		fmt.Fprintf(a.Stdout, "ncghunt: campaign complete; merged records in %s\n", c.ResultPath())
		// Linger briefly so workers waiting in their (<=1s) lease-poll
		// loop learn "done" from the protocol and exit cleanly instead
		// of burning their retry budget against a vanished coordinator.
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
		}
	case <-ctx.Done():
		// The manifest already holds every completed shard; restarting
		// serve on the same -dir resumes exactly here.
		fmt.Fprintf(a.Stderr, "ncghunt: coordinator stopping; resume with: ncghunt serve -dir %s [same flags]\n", *dir)
		interrupted = true
	case err := <-serveErr:
		a.Errorf("%v", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if interrupted {
		cli.Exit(cli.SignalExitCode)
	}
}

// cmdWork runs one worker process against a coordinator.
func (a *app) cmdWork(args []string) {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	var cf campaignFlags
	cf.register(fs)
	url := fs.String("url", "", "coordinator base URL (http://host:port)")
	name := fs.String("name", "", "worker name in leases and logs (default: host:pid)")
	var prof cli.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	if *url == "" {
		a.Fail("work needs -url")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, stop := cli.SignalContext(a.Stderr, "ncghunt")
	defer stop()
	defer prof.Start(a.App)()
	stats, err := coord.RunWorker(ctx, coord.WorkerConfig{
		URL:      *url,
		Campaign: cf.build(a),
		Name:     *name,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(a.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(a.Stdout, "ncghunt: worker %s done: %d shards, %d records, %d retries\n",
		*name, stats.Shards, stats.Records, stats.Retries)
	if errors.Is(err, context.Canceled) {
		// Graceful drain: the current instance finished and the lease was
		// released before RunWorker returned.
		cli.Exit(cli.SignalExitCode)
	}
	if err != nil {
		a.Errorf("%v", err)
	}
}

// cmdWatch follows a coordinator's live result stream, writing record
// lines to stdout exactly as they commit. The output is always a
// byte-prefix of the campaign's final records.jsonl, so piping it into a
// file yields a valid partial JSONL at any interruption point.
func (a *app) cmdWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(a.Stderr)
	fs.Usage = func() { fmt.Fprint(a.Stderr, usage) }
	url := fs.String("url", "", "coordinator base URL (http://host:port)")
	cursor := fs.String("cursor", "", "resume a previous watch after its last acked byte")
	wait := fs.Duration("wait", 5*time.Second, "long-poll window per request")
	max := fs.Int("max", 0, "chunk byte cap per poll (0 = server default)")
	if err := fs.Parse(args); err != nil {
		cli.Exit(2)
	}
	if fs.NArg() > 0 {
		a.Fail("unexpected arguments %v", fs.Args())
	}
	if *url == "" {
		a.Fail("watch needs -url")
	}
	if *wait <= 0 {
		a.Fail("-wait must be positive, got %v", *wait)
	}
	if *max < 0 {
		a.Fail("-max must be >= 0, got %d", *max)
	}
	ctx, stop := cli.SignalContext(a.Stderr, "ncghunt")
	defer stop()
	stats, err := coord.RunWatch(ctx, coord.WatchConfig{
		URL:        *url,
		Cursor:     *cursor,
		Wait:       *wait,
		ChunkBytes: *max,
		OnChunk: func(chunk []byte, _ string, _ bool) error {
			_, werr := a.Stdout.Write(chunk)
			return werr
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(a.Stderr, format+"\n", args...)
		},
	})
	if errors.Is(err, context.Canceled) {
		// Interrupted between chunks: everything written to stdout is
		// acked, so the printed cursor resumes exactly after it.
		if stats.Cursor != "" {
			fmt.Fprintf(a.Stderr, "ncghunt: watch interrupted; continue with: ncghunt watch -url %s -cursor %s\n",
				*url, stats.Cursor)
		}
		cli.Exit(cli.SignalExitCode)
	}
	if err != nil {
		a.Errorf("%v", err)
	}
	fmt.Fprintf(a.Stderr, "ncghunt: watch complete: %d bytes in %d polls (%d retries, %d reconnects)\n",
		stats.Bytes, stats.Polls, stats.Retries, stats.Reconnects)
}

// pickSamplers resolves the -samplers list (empty: all built-ins) and
// validates each against the agent count.
func (a *app) pickSamplers(list string, n int) []campaign.Sampler {
	var out []campaign.Sampler
	if list == "" {
		out = campaign.BuiltinSamplers()
	} else {
		for _, name := range strings.Split(list, ",") {
			smp, ok := campaign.SamplerByName(strings.TrimSpace(name))
			if !ok {
				a.Fail("unknown sampler %q; see ncghunt grid", strings.TrimSpace(name))
			}
			out = append(out, smp)
		}
	}
	for _, smp := range out {
		if smp.CheckN != nil {
			if err := smp.CheckN(n); err != nil {
				a.Fail("sampler %s: %v", smp.Name, err)
			}
		}
	}
	return out
}

// pickVariants resolves the -variants list (empty: all built-ins) and
// applies the -schedule override: "sequential" forces the exhaustive
// state-graph search, a rounds name hunts each variant's played round
// trajectory instead. The oracle and backend specs apply to every
// round-trajectory variant (the exhaustive explorer always runs exact on
// the dense backend).
func (a *app) pickVariants(list, schedule string, oracle dynamics.OracleSpec, backend dynamics.BackendSpec) []campaign.Variant {
	var out []campaign.Variant
	if list == "" {
		out = campaign.BuiltinVariants()
	} else {
		for _, name := range strings.Split(list, ",") {
			v, ok := campaign.VariantByName(strings.TrimSpace(name))
			if !ok {
				a.Fail("unknown variant %q; see ncghunt grid", strings.TrimSpace(name))
			}
			out = append(out, v)
		}
	}
	if schedule != "" {
		s, ok := dynamics.ScheduleByName(schedule)
		if !ok {
			a.Fail("unknown schedule %q (schedules: %s)", schedule, strings.Join(dynamics.ScheduleNames(), ", "))
		}
		rd, rounds := s.(dynamics.Rounds)
		for i := range out {
			if rounds {
				out[i].Schedule = rd
			} else {
				out[i].Schedule = nil
			}
		}
	}
	for i := range out {
		out[i].Oracle = oracle
		out[i].Backend = backend
	}
	return out
}
