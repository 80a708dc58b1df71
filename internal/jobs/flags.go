package jobs

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/locman"
)

// scenarioFixedFlags are the model-half flags: the part of the run a
// -scenario fixes and therefore refuses to combine with. The run-shape
// flags (-terminals, -slots, -seed, -shards, -engine, -telemetry-every,
// -d) and any flag a command adds on its own never conflict.
var scenarioFixedFlags = []string{
	"model", "q", "c", "U", "V", "m", "partition", "dynamic",
	"reoptimize-every", "hetero", "scheme", "scheme-param", "loss",
	"poll-loss", "reply-loss", "update-retries", "ack-timeout",
	"page-retries", "outage",
}

// SpecFlags registers the run flags pcnsim and pcnctl submit share on fs
// and returns the function that builds the Spec they describe once fs
// has been parsed, so a flag line means the same run to both commands.
// A -scenario Spec carries only the run shape: the model-flag defaults
// (q=0.05, U=100, ...) are not zero, so they are left unset rather than
// copied, and a model flag set explicitly is an error in flag spelling.
func SpecFlags(fs *flag.FlagSet) func() (Spec, error) {
	model := fs.String("model", "2d", "mobility model: 1d or 2d")
	q := fs.Float64("q", 0.05, "per-slot movement probability")
	c := fs.Float64("c", 0.01, "per-slot call-arrival probability")
	u := fs.Float64("U", 100, "location-update cost")
	v := fs.Float64("V", 10, "per-cell polling cost")
	m := fs.Int("m", 3, "maximum paging delay in polling cycles (0 = unbounded)")
	partition := fs.String("partition", "",
		"paging partitioner: "+strings.Join(locman.PartitionNames(), ", ")+" (default sdf)")
	dynamic := fs.Bool("dynamic", false, "per-terminal online estimation and re-optimization")
	reoptEvery := fs.Int64("reoptimize-every", 0,
		"dynamic re-optimization period in slots (0 = engine default)")
	hetero := fs.Bool("hetero", false, "heterogeneous population (per-terminal q varies ±50%)")
	scheme := fs.String("scheme", "",
		"location-update scheme: "+strings.Join(locman.UpdateSchemeNames(), ", ")+" (default distance)")
	schemeParam := fs.Int64("scheme-param", 0,
		"update-scheme parameter: timer period or movement count in slots (distance takes none; its threshold is -d)")
	loss := fs.Float64("loss", 0, "update-message loss probability (failure injection)")
	pollLoss := fs.Float64("poll-loss", 0, "downlink paging-poll loss probability")
	replyLoss := fs.Float64("reply-loss", 0, "uplink paging-reply loss probability")
	updateRetries := fs.Int("update-retries", 0,
		"acked-update retransmission budget (0 = fire-and-forget updates)")
	ackTimeout := fs.Int64("ack-timeout", 0,
		"first retransmission timeout in scheduler ticks (0 = default, doubles per retry)")
	pageRetries := fs.Int("page-retries", 0,
		"recovery paging rounds before a call is dropped (0 = default)")
	outages := fs.String("outage", "",
		"HLR outage windows in slots, e.g. 1000:2000 or 1000:2000,5000:5500")
	scenario := fs.String("scenario", "",
		"run a registered scenario: "+strings.Join(locman.ScenarioNames(), ", ")+
			" (fixes the model; run-shape flags still apply)")
	terminals := fs.Int("terminals", 20, "number of mobile terminals")
	slots := fs.Int64("slots", 200_000, "time slots to simulate")
	threshold := fs.Int("d", -1, "static threshold (-1 = network-optimized)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0),
		"parallel simulation shards (results are identical for any shard count)")
	engine := fs.String("engine", locman.EngineCols.String(),
		"simulation engine: "+strings.Join(locman.EngineNames(), " or ")+
			" (columnar vs reference event-driven); results are bit-identical")
	telemetryEvery := fs.Int64("telemetry-every", 0,
		"capture a telemetry snapshot frame every N slots (0 = off)")

	return func() (Spec, error) {
		spec := Spec{
			Scenario:      *scenario,
			Terminals:     *terminals,
			Slots:         *slots,
			Shards:        *shards,
			SnapshotEvery: *telemetryEvery,
			Seed:          *seed,
			Engine:        *engine,
		}
		if d := *threshold; d >= 0 {
			spec.Threshold = &d
		}
		if *scenario != "" {
			var conflicts []string
			fs.Visit(func(f *flag.Flag) {
				if slices.Contains(scenarioFixedFlags, f.Name) {
					conflicts = append(conflicts, "-"+f.Name)
				}
			})
			if len(conflicts) > 0 {
				return Spec{}, fmt.Errorf("-scenario %s fixes the model; drop the conflicting flag(s): %s",
					*scenario, strings.Join(conflicts, ", "))
			}
			return spec, nil
		}
		spec.Model = *model
		spec.MoveProb = *q
		spec.CallProb = *c
		spec.UpdateCost = *u
		spec.PollCost = *v
		spec.MaxDelay = *m
		spec.Partition = *partition
		spec.Scheme = *scheme
		spec.SchemeParam = *schemeParam
		spec.Dynamic = *dynamic
		spec.ReoptimizeEvery = *reoptEvery
		if *hetero {
			spec.Fleet = locman.HeteroFleet(*q, *c)
		}
		faults := locman.FaultPlan{
			UpdateLoss:    *loss,
			PollLoss:      *pollLoss,
			ReplyLoss:     *replyLoss,
			UpdateRetries: *updateRetries,
			AckTimeout:    *ackTimeout,
			PageRetries:   *pageRetries,
		}
		if *outages != "" {
			windows, err := ParseOutages(*outages)
			if err != nil {
				return Spec{}, err
			}
			faults.Outages = windows
		}
		if faults.UpdateLoss != 0 || faults.PollLoss != 0 || faults.ReplyLoss != 0 ||
			faults.UpdateRetries != 0 || faults.AckTimeout != 0 || faults.PageRetries != 0 ||
			len(faults.Outages) > 0 {
			spec.Faults = &faults
		}
		return spec, nil
	}
}

// ParseOutages parses the -outage flag: comma-separated start:end slot
// windows. It checks the syntax only; the engine's validation, which
// Spec.Validate runs, refuses a window that is negative, inverted or
// empty.
func ParseOutages(s string) ([]locman.Outage, error) {
	var out []locman.Outage
	for _, w := range strings.Split(s, ",") {
		start, end, ok := strings.Cut(w, ":")
		if !ok {
			return nil, fmt.Errorf("outage window %q is not start:end", w)
		}
		a, err := strconv.ParseInt(strings.TrimSpace(start), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("outage window %q: %v", w, err)
		}
		b, err := strconv.ParseInt(strings.TrimSpace(end), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("outage window %q: %v", w, err)
		}
		out = append(out, locman.Outage{Start: a, End: b})
	}
	return out, nil
}
