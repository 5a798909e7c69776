// Package perfmodel implements the analytic colocation contention model:
// the replacement for the paper's physical testbed. Given a machine
// configuration and a set of co-resident job instances it predicts each
// job's effective MIPS and the full set of performance counters the
// Profiler would observe.
//
// # Model
//
// Each job's cycles-per-instruction is decomposed into an execution
// component and a memory-stall component:
//
//	CPI = CPIexe + MPKI/1000 * Lmem(ns) * freq(GHz) * latencyInflation
//
// CPIexe and Lmem are calibrated per job so that (a) the job's solo IPC on
// the stock machine equals its catalog BaseIPC and (b) the fraction of
// solo runtime that scales with clock equals its catalog FreqSensitivity.
// Colocation then perturbs the terms:
//
//   - LLC capacity is shared in proportion to access intensity; each job's
//     miss ratio follows an exponential miss-ratio curve of its allocated
//     capacity versus working set.
//   - Aggregate memory traffic inflates Lmem through an M/M/1-style
//     queueing factor as bandwidth utilisation approaches capacity.
//   - With SMT on, co-scheduled hardware threads sacrifice per-thread
//     throughput (job SMTYield, worsened by ALU-heavy partners); with SMT
//     off, half the vCPUs disappear and saturated machines time-share.
//   - Network and disk saturation throttle I/O-bound jobs.
//
// The mutual dependence between throughput, cache allocation, and
// bandwidth pressure is resolved by fixed-point iteration.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"flare/internal/machine"
	"flare/internal/workload"
)

// Model constants. These are physical-ish parameters of the simulated
// platform, not per-job tunables.
const (
	// memBlockingFactor is the fraction of memory latency that is not
	// hidden by out-of-order overlap.
	memBlockingFactor = 0.7
	// lmemNominalNs is the loaded-system effective LLC-miss latency for a
	// job with typical memory-level parallelism; jobs whose solo profile
	// implies more overlap (streaming prefetchable access) calibrate to a
	// lower effective latency, bounded below by lmemMinNs.
	lmemNominalNs = 80.0
	lmemMinNs     = 20.0
	// cpiExeFloor is the minimum execution CPI of any job.
	cpiExeFloor = 0.12
	// cacheLineBytes and writebackFactor convert LLC misses to DRAM traffic.
	cacheLineBytes  = 64.0
	writebackFactor = 1.35
	// bwUtilKnee is where memory-bandwidth queueing delay starts growing
	// sharply; bwUtilCap caps the modelled utilisation to keep the
	// inflation finite (loaded DRAM latency saturates around 3x unloaded
	// on real parts rather than growing without bound).
	bwUtilKnee = 0.55
	bwUtilCap  = 0.90
	// llcFloorFrac is the fraction of LLC divided evenly among instances
	// regardless of access intensity, modelling the partial isolation
	// (way partitioning, CAT defaults) of production machines; the rest
	// is shared in proportion to access rate like an unmanaged LRU.
	llcFloorFrac = 0.25
	// fixedPointIters is the number of throughput/allocation relaxation
	// rounds; the system contracts quickly and 12 rounds is far past
	// convergence for every catalog workload.
	fixedPointIters = 12
	// smtPartnerALUWeight controls how much an ALU-hungry core partner
	// worsens SMT contention beyond the job's own SMTYield.
	smtPartnerALUWeight = 0.5
)

// Assignment places instances of one job profile on the machine.
type Assignment struct {
	Profile   workload.Profile
	Instances int
}

// Options controls an evaluation.
type Options struct {
	// NoiseStd is the standard deviation of multiplicative log-normal
	// noise applied to reported throughput and counters, modelling run-to-
	// run variance of a real machine. Zero disables noise.
	NoiseStd float64
	// Rand supplies randomness when NoiseStd > 0. Required in that case.
	Rand *rand.Rand
	// ActivityFactors optionally modulates each job's load intensity for
	// this evaluation window (temporal/phase behaviour, paper Sec 4.1):
	// one multiplier per Assignment, 1 = nominal load. nil means all 1.
	ActivityFactors []float64
}

// JobPerf is the modelled performance of one job in a colocation, with
// per-instance throughput and the counter values the profiler observes.
type JobPerf struct {
	Job       string
	Class     workload.Class
	Instances int

	MIPS       float64 // per-instance million instructions per second
	IPC        float64 // per-hardware-thread IPC
	EffFreqGHz float64 // operating frequency

	// Cache and memory behaviour.
	LLCAllocMB float64 // per-instance LLC allocation
	LLCAPKI    float64 // LLC accesses per kilo-instruction
	LLCMPKI    float64 // LLC misses per kilo-instruction
	L1MPKI     float64
	L2MPKI     float64
	MemBWGBps  float64 // per-instance DRAM traffic

	// Top-down slot breakdown under these conditions.
	FrontendBound  float64
	BadSpeculation float64
	BackendBound   float64
	Retiring       float64

	BranchMPKI float64

	// Resource shares actually granted.
	CPUShare  float64 // fraction of requested vCPU time received
	SMTFactor float64 // per-thread throughput multiplier from core sharing

	// I/O and OS-level rates (per instance).
	NetworkMbps     float64
	DiskMBps        float64
	CtxSwitchPerSec float64
	PageFaultPerSec float64
}

// MachinePerf aggregates the colocation to machine level, the *-Machine
// metric family of the paper's Figure 6.
type MachinePerf struct {
	TotalMIPS float64 // sum over all instances
	HPMIPS    float64 // sum over HP instances only

	UsedVCPUs  int     // vCPUs requested by the colocation (uncapped)
	CPUUtil    float64 // granted vCPU time / machine vCPUs
	AvgIPC     float64 // instruction-weighted IPC
	EffFreqGHz float64

	LLCOccupMB float64 // total allocated LLC
	LLCMPKI    float64 // instruction-weighted machine MPKI
	LLCAPKI    float64

	MemBWGBps float64 // total DRAM traffic
	MemBWUtil float64 // fraction of sustainable bandwidth

	NetworkMbps float64
	NetworkUtil float64
	DiskMBps    float64
	DiskUtil    float64

	FrontendBound  float64 // instruction-weighted top-down fractions
	BadSpeculation float64
	BackendBound   float64
	Retiring       float64

	CtxSwitchPerSec float64
	PageFaultPerSec float64
}

// Result is a full machine evaluation.
type Result struct {
	Jobs    []JobPerf
	Machine MachinePerf
}

// ErrNoiseWithoutRand rejects Options with NoiseStd > 0 and no Rand.
var ErrNoiseWithoutRand = errors.New("perfmodel: NoiseStd > 0 requires Options.Rand")

// Evaluate models the steady-state performance of the given colocation on
// the given machine configuration. Jobs must be non-empty with positive
// instance counts and valid profiles.
func Evaluate(cfg machine.Config, jobs []Assignment, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("perfmodel: invalid config: %w", err)
	}
	if err := validateJobs(jobs); err != nil {
		return Result{}, err
	}
	if opts.NoiseStd > 0 && opts.Rand == nil {
		return Result{}, ErrNoiseWithoutRand
	}
	if err := validateActivity(jobs, opts.ActivityFactors); err != nil {
		return Result{}, err
	}

	st := newState(cfg, jobs, opts.ActivityFactors)
	st.relax()
	res := st.result(opts)
	return res, nil
}

// SoloMIPS returns the per-instance MIPS of a single instance of p alone
// on cfg: the "inherent MIPS" denominator of the paper's performance
// metric when cfg is the stock baseline machine.
func SoloMIPS(cfg machine.Config, p workload.Profile) (float64, error) {
	res, err := Evaluate(cfg, []Assignment{{Profile: p, Instances: 1}}, Options{})
	if err != nil {
		return 0, err
	}
	return res.Jobs[0].MIPS, nil
}

// calib holds the per-job calibrated CPI decomposition:
//
//	CPI(f) = cpiExe + (otherStallNs + MPKI/1000*lmemNs*blocking*inflation) * f
//
// cpiExe scales with clock; the parenthesised term is fixed in wall time.
type calib struct {
	cpiExe       float64 // execution CPI (scales with clock)
	lmemNs       float64 // effective LLC-miss latency in ns
	otherStallNs float64 // clock-invariant non-LLC stall time per instruction, ns
}

// calibrate solves the decomposition for one profile on its stock shape
// so that (a) solo IPC at max clock equals BaseIPC and (b) the fraction
// of solo runtime scaling with clock equals FreqSensitivity.
//
// The clock-invariant budget is attributed to LLC-miss stalls at the
// nominal effective latency first; any remainder becomes generic
// clock-invariant stall (L2 misses, I/O waits). If the nominal latency
// over-explains the budget, the job evidently overlaps its misses well
// (streaming access) and its effective latency calibrates lower.
func calibrate(shape machine.Shape, p workload.Profile) calib {
	fullLLC := shape.TotalLLCMB()
	soloMPKI := p.LLCAPKI * missRatio(&p, fullLLC) // solo job owns the whole LLC
	cpiTotal := 1 / p.BaseIPC
	freq := shape.MaxFreqGHz

	memBudget := (1 - p.FreqSensitivity) * cpiTotal // cycles, clock-invariant in time
	cpiExe := math.Max(cpiExeFloor, p.FreqSensitivity*cpiTotal)

	llcStallSolo := soloMPKI / 1000 * lmemNominalNs * memBlockingFactor * freq
	c := calib{cpiExe: cpiExe, lmemNs: lmemNominalNs}
	switch {
	case soloMPKI < 1e-9:
		c.otherStallNs = memBudget / freq
	case llcStallSolo > memBudget:
		c.lmemNs = math.Max(lmemMinNs, memBudget*1000/(soloMPKI*freq*memBlockingFactor))
	default:
		c.otherStallNs = (memBudget - llcStallSolo) / freq
	}
	return c
}

// missRatio evaluates the exponential miss-ratio curve of p for an
// allocated capacity of allocMB. It takes the profile by pointer because
// the relaxation loop calls it per job per iteration.
func missRatio(p *workload.Profile, allocMB float64) float64 {
	if allocMB < 0 {
		allocMB = 0
	}
	return p.ColdMissFrac + (1-p.ColdMissFrac)*math.Exp(-p.MissCurve*allocMB/p.WorkingSetMB)
}
