package population

import (
	"sort"

	"fpdyn/internal/canvas"
	"fpdyn/internal/geoip"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/parallel"
)

// userSeed derives the RNG seed for one user's shard: the global seed
// folded with the hash of the stable user ID. Each user gets an
// independent stream, so shards can be simulated in any order, on any
// number of workers, and still draw exactly the same values.
func userSeed(cfg Config, u int) int64 {
	return cfg.Seed ^ int64(hashutil.Hash64(userHash(cfg.Seed, u)))
}

// instanceSeed is the RNG seed of the visit stream of the instance
// with the given global serial.
func instanceSeed(cfg Config, serial int) int64 {
	return cfg.Seed*1_000_003 + int64(serial)
}

// userShard is one user's simulated world before merging: the
// creation-phase output and, later, the emitted per-shard records.
type userShard struct {
	instances []*instance
	devices   []*device
	out       *Dataset
}

// simulateBatch is the one generator behind Simulate and SimulateSpill:
// it simulates users [u0, u1), whose first instance serial is instBase,
// and returns one shard per user plus the next free instance serial.
// It runs in three phases:
//
//  1. build every user's devices and instances concurrently, each from
//     its own userSeed sub-RNG (a pooled lfSource, rng.go), with
//     shard-local instance serials;
//  2. renumber the local serials into the global, user-ordered
//     numbering (a serial prefix-sum pass, so the assignment is
//     independent of scheduling and of how users are batched);
//  3. run each user's visit loop concurrently into a private shard
//     Dataset that shares geo and the run's render memo.
//
// Users never share devices and the per-instance RNG streams are keyed
// by global serial, so phases 1 and 3 are embarrassingly parallel; the
// only shared state, the geolocation DB, is immutable after New.
func simulateBatch(cfg Config, geo *geoip.DB, renders *renderMemo, u0, u1, instBase int) ([]*userShard, int) {
	// Phase 1: creation, one shard per user, local serials from 0.
	shards := parallel.Map(cfg.Workers, u1-u0, func(i int) *userShard {
		rng := newRNG(userSeed(cfg, u0+i))
		ins, devs := buildUser(rng, cfg, geo, u0+i)
		releaseRNG(rng)
		return &userShard{instances: ins, devices: devs}
	})

	// Phase 2: renumber shard-local instance serials into the global
	// numbering. devChange.except holds instance serials captured at
	// creation time (the Samsung self-exclusion), so it shifts with the
	// instances.
	for _, sh := range shards {
		for _, in := range sh.instances {
			in.serial += instBase
		}
		for _, dv := range sh.devices {
			for i := range dv.schedule {
				if dv.schedule[i].except >= 0 {
					dv.schedule[i].except += instBase
				}
			}
		}
		instBase += len(sh.instances)
	}

	// Phase 3: per-shard visit loops into private Datasets.
	parallel.ForEach(cfg.Workers, len(shards), func(i int) {
		sh := shards[i]
		sh.out = &Dataset{
			Cfg:          cfg,
			CanvasImages: make(map[string]*canvas.Image),
			GPUImageInfo: make(map[string]canvas.GPUInfo),
			Geo:          geo,
			renders:      renders,
		}
		simulateVisits(cfg, sh.instances, sh.out)
	})
	return shards, instBase
}

// mergeBatch collects the shards' records into one timeline sorted by
// (time, serial) — per-instance visit times strictly increase, so the
// order is total and independent of the shard order — and folds the
// shards' image stores into images and gpus in user order. Identical
// hash means identical image, so first-wins is exact for images; GPU
// image hashes can collide across distinct GPUInfo values (integrated
// GPUs cluster), so the user-order fold is what fixes the winner.
func mergeBatch(shards []*userShard, images map[string]*canvas.Image, gpus map[string]canvas.GPUInfo) []StreamItem {
	total := 0
	for _, sh := range shards {
		total += len(sh.out.Records)
	}
	items := make([]StreamItem, 0, total)
	for _, sh := range shards {
		out := sh.out
		for i := range out.Records {
			items = append(items, StreamItem{
				Rec:        out.Records[i],
				Instance:   out.TrueInstance[i],
				VisitIndex: out.VisitIndex[i],
				Truth:      out.Truth[i],
			})
		}
		for h, img := range out.CanvasImages {
			if _, ok := images[h]; !ok {
				images[h] = img
			}
		}
		for h, info := range out.GPUImageInfo {
			if _, ok := gpus[h]; !ok {
				gpus[h] = info
			}
		}
	}
	sort.Slice(items, func(i, j int) bool { return itemLess(items[i], items[j]) })
	return items
}
