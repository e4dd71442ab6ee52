package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os/exec"
	"strconv"
	"strings"

	"rtsj/internal/experiments"
	"rtsj/internal/sim"
)

// campaignFlags groups the -campaign mode's flags, registered alongside the
// table flags in run.
type campaignFlags struct {
	run       *bool
	points    *string
	systems   *int
	seed      *int64
	policy    *string
	shards    *int
	shardBin  *string
	shardAddr *string
	batch     *int
	format    *string
	progress  *bool
}

func registerCampaignFlags(fs *flag.FlagSet) campaignFlags {
	return campaignFlags{
		run:       fs.Bool("campaign", false, "run a utilization-sweep campaign instead of the paper tables"),
		points:    fs.String("points", "", "campaign: comma-separated task densities (default: the stock sweep)"),
		systems:   fs.Int("systems", 0, "campaign: systems per sweep point (default 1000)"),
		seed:      fs.Int64("seed", 0, "campaign: generation seed (default 1983)"),
		policy:    fs.String("policy", "ds", "campaign: server policy (bg, ps, ds, ps-lim, ds-lim, ss, pe, slack)"),
		shards:    fs.Int("shards", 0, "campaign: run this many shard subprocesses (0: in-process)"),
		shardBin:  fs.String("shard-bin", "shard", "campaign: shard worker binary for -shards"),
		shardAddr: fs.String("shard-addr", "", "campaign: comma-separated TCP shard addresses (overrides -shards)"),
		batch:     fs.Int("batch", 0, "campaign: systems per shard request (0: auto)"),
		format:    fs.String("format", "text", "campaign: output format (text, csv, json)"),
		progress:  fs.Bool("progress", false, "campaign: report live progress (systems/s, ETA, shard health) on stderr"),
	}
}

// runCampaign resolves the flags into a CampaignSpec, runs it in-process,
// over subprocess shards or over TCP shards, and prints the curve. All
// three paths print byte-identical output for the same spec. It returns
// the command's exit status: 2 for a malformed spec or flag value, 1 for a
// failed run.
func runCampaign(cf campaignFlags, workers int, stdout, stderr io.Writer) int {
	spec := experiments.DefaultCampaignSpec()
	if *cf.points != "" {
		var pts []float64
		for _, s := range strings.Split(*cf.points, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(stderr, "tables: -points: %q is not a number\n", s)
				return 2
			}
			pts = append(pts, d)
		}
		spec.Points = pts
	}
	if *cf.systems > 0 {
		spec.Systems = *cf.systems
	}
	if *cf.seed != 0 {
		spec.Seed = *cf.seed
	}
	pol, ok := sim.ParseServerPolicy(*cf.policy)
	if !ok {
		fmt.Fprintf(stderr, "tables: -policy: unknown policy %q\n", *cf.policy)
		return 2
	}
	spec.Policy = pol
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "tables: %v\n", err)
		return 2
	}

	switch *cf.format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(stderr, "tables: -format: unknown format %q (want text, csv or json)\n", *cf.format)
		return 2
	}

	curve, err := dispatchCampaign(spec, cf, workers, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "tables: %v\n", err)
		return 1
	}
	switch *cf.format {
	case "csv":
		fmt.Fprint(stdout, curve.FormatCSV())
	case "json":
		out, err := curve.FormatJSON()
		if err != nil {
			fmt.Fprintf(stderr, "tables: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, out)
	default:
		fmt.Fprint(stdout, curve.Format())
	}
	return 0
}

func dispatchCampaign(spec experiments.CampaignSpec, cf campaignFlags, workers int, stderr io.Writer) (*experiments.Curve, error) {
	// Progress goes to stderr so the curve output stays clean for
	// redirection; the curve itself is byte-identical either way.
	var opts experiments.CampaignOptions
	if *cf.progress {
		opts.Progress = stderr
	}
	switch {
	case *cf.shardAddr != "":
		return runCampaignTCP(spec, strings.Split(*cf.shardAddr, ","), *cf.batch, opts)
	case *cf.shards > 0:
		return runCampaignSubprocess(spec, *cf.shards, *cf.shardBin, *cf.batch, workers, opts, stderr)
	default:
		return experiments.RunCampaignOpts(spec, opts)
	}
}

// runCampaignSubprocess spawns n shard worker processes speaking the wire
// protocol over their stdin/stdout pipes. The coordinator's -workers value
// is forwarded to every shard: the flag bounds each process's pool, so n
// shards run up to n*workers simulation goroutines machine-wide.
func runCampaignSubprocess(spec experiments.CampaignSpec, n int, bin string, batch, workers int, opts experiments.CampaignOptions, stderr io.Writer) (*experiments.Curve, error) {
	conns := make([]experiments.ShardConn, n)
	cmds := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		args := []string{}
		if workers > 0 {
			args = append(args, "-workers", strconv.Itoa(workers))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d: %w", i, err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d: %w", i, err)
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("campaign: shard %d: start %s: %w", i, bin, err)
		}
		conns[i] = experiments.ShardConn{Name: fmt.Sprintf("shard %d (pid %d)", i, cmd.Process.Pid), R: out, W: in}
		cmds[i] = cmd
	}
	curve, err := experiments.RunCampaignShardedOpts(spec, conns, batch, opts)
	for i, cmd := range cmds {
		// Closing stdin is the shutdown signal: ServeShard returns on EOF.
		if c, ok := conns[i].W.(interface{ Close() error }); ok {
			c.Close()
		}
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("campaign: %s: %w", conns[i].Name, werr)
		}
	}
	return curve, err
}

// runCampaignTCP connects to already-running shard workers (cmd/shard
// -listen) over TCP.
func runCampaignTCP(spec experiments.CampaignSpec, addrs []string, batch int, opts experiments.CampaignOptions) (*experiments.Curve, error) {
	conns := make([]experiments.ShardConn, 0, len(addrs))
	defer func() {
		for _, c := range conns {
			c.W.(net.Conn).Close()
		}
	}()
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		conns = append(conns, experiments.ShardConn{Name: addr, R: c, W: c})
	}
	return experiments.RunCampaignShardedOpts(spec, conns, batch, opts)
}
