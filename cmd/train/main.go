// Command train fits a DeePMD model to a labelled dataset with one of the
// paper's optimizers, printing per-epoch metrics.
//
// Usage:
//
//	train -data cu.gob -optimizer fekf -bs 32 -epochs 20
//	train -system Cu -tiny -optimizer adam -bs 1 -epochs 10
//	train -system Cu -tiny -optimizer fekf -bs 128 -gpus 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
	"fekf/internal/tensor"
	"fekf/internal/train"
)

func main() {
	log.SetFlags(0)
	var (
		dataPath  = flag.String("data", "", "dataset file from datagen (overrides -system)")
		system    = flag.String("system", "Cu", "generate data for this system if -data is empty")
		tiny      = flag.Bool("tiny", true, "use reduced cells when generating")
		snapshots = flag.Int("n", 192, "snapshots to generate when -data is empty")
		optName   = flag.String("optimizer", "fekf", "adam | rlekf | fekf | naive")
		bs        = flag.Int("bs", 32, "batch size")
		epochs    = flag.Int("epochs", 20, "max epochs")
		target    = flag.Float64("target", 0, "per-atom energy RMSE stop target (0 = run all epochs)")
		level     = flag.Int("opt-level", 3, "model optimization level 0..3 (Figure 7)")
		gpus      = flag.Int("gpus", 1, "simulated GPUs (FEKF only)")
		seed      = flag.Int64("seed", 1, "random seed")
		testFrac  = flag.Float64("test", 0.25, "test split fraction")
		savePath  = flag.String("save", "", "write the trained model checkpoint here")
		loadPath  = flag.String("load", "", "resume from a model checkpoint")
		tracePath = flag.String("trace", "", "write a chrome://tracing kernel timeline here")
		workers   = flag.Int("workers", 0, "host worker pool size for parallel kernels (0 = GOMAXPROCS / FEKF_WORKERS)")
		pipeline  = flag.Bool("pipeline", optimize.PipelineDefault(),
			"overlap each Kalman covariance drain with the next force group (bitwise identical; also FEKF_PIPELINE)")
	)
	flag.Parse()
	tensor.SetWorkers(*workers)

	var ds *dataset.Dataset
	var err error
	if *dataPath != "" {
		ds, err = dataset.Load(*dataPath)
	} else {
		fmt.Printf("generating %d %s snapshots...\n", *snapshots, *system)
		ds, err = dataset.Generate(*system, dataset.GenOptions{
			Snapshots: *snapshots, SampleEvery: 5, EquilSteps: 40,
			Tiny: *tiny, Seed: *seed,
		})
	}
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	trainSet, testSet := ds.Split(*testFrac, *seed)
	fmt.Printf("dataset %s: %d train / %d test images, %d atoms\n",
		ds.System, trainSet.Len(), testSet.Len(), ds.Snapshots[0].NumAtoms())

	var m *deepmd.Model
	if *loadPath != "" {
		m, err = deepmd.Load(*loadPath)
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		fmt.Printf("resumed from %s\n", *loadPath)
	} else {
		sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
		cfg := deepmd.TinyConfig(sys)
		cfg.Seed = *seed
		m, err = deepmd.NewModel(cfg)
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		if err := m.InitFromDataset(trainSet); err != nil {
			log.Fatalf("train: %v", err)
		}
	}
	m.Level = deepmd.OptLevel(*level)
	m.Dev = device.New("gpu0", device.A100())
	fmt.Printf("model: %d parameters, level %v\n", m.NumParams(), m.Level)

	var tracer *device.Tracer
	if *tracePath != "" {
		tracer = m.Dev.StartTrace()
	}
	defer func() {
		if tracer != nil {
			m.Dev.StopTrace()
			if err := tracer.WriteJSON(*tracePath); err != nil {
				log.Fatalf("train: %v", err)
			}
			fmt.Printf("kernel timeline (%d events) -> %s\n", tracer.NumEvents(), *tracePath)
		}
		if *savePath != "" {
			if err := m.Save(*savePath); err != nil {
				log.Fatalf("train: %v", err)
			}
			fmt.Printf("checkpoint -> %s\n", *savePath)
		}
	}()

	start := time.Now()
	if *gpus > 1 {
		if *optName != "fekf" {
			log.Fatalf("train: -gpus > 1 requires -optimizer fekf")
		}
		runDistributed(m, trainSet, testSet, *bs, *gpus, *epochs, *target, *seed, *pipeline)
		return
	}

	var opt optimize.Optimizer
	switch *optName {
	case "adam":
		opt = optimize.NewAdam()
	case "rlekf":
		f := optimize.NewRLEKF()
		f.Pipeline = *pipeline
		opt = f
	case "fekf":
		f := optimize.NewFEKF()
		if *level >= int(deepmd.OptAll) {
			f.KCfg = f.KCfg.WithOpt3()
		}
		f.Pipeline = *pipeline
		opt = f
	case "naive":
		opt = optimize.NewNaiveEKF()
	default:
		log.Fatalf("train: unknown optimizer %q", *optName)
	}

	res, err := train.Run(m, train.OptStepper{M: m, Opt: opt}, trainSet, train.Config{
		BatchSize:        *bs,
		MaxEpochs:        *epochs,
		TargetEnergyRMSE: *target,
		Seed:             *seed,
		OnEpoch: func(epoch int, met deepmd.Metrics) {
			fmt.Printf("epoch %3d: train E/atom RMSE %.5f eV, F RMSE %.4f eV/Å\n",
				epoch, met.EnergyPerAtomRMSE, met.ForceRMSE)
		},
	})
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	finish(m, testSet, res.Epochs, res.Converged, time.Since(start))
}

func runDistributed(m *deepmd.Model, trainSet, testSet *dataset.Dataset, bs, gpus, epochs int, target float64, seed int64, pipeline bool) {
	dp := cluster.NewDataParallelFEKF(gpus, m)
	dp.FEKF.KCfg = dp.FEKF.KCfg.WithOpt3()
	dp.FEKF.Pipeline = pipeline
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	iters := trainSet.Len() / bs
	if iters < 1 {
		iters = 1
	}
	converged := false
	epoch := 0
	for !converged && epoch < epochs {
		epoch++
		for i := 0; i < iters; i++ {
			if _, err := dp.Step(trainSet, trainSet.SampleBatch(bs, rng)); err != nil {
				log.Fatalf("train: %v", err)
			}
		}
		met, err := dp.Model().Evaluate(trainSet.Subset(16), 8)
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		fmt.Printf("epoch %3d: train E/atom RMSE %.5f eV, F RMSE %.4f eV/Å\n",
			epoch, met.EnergyPerAtomRMSE, met.ForceRMSE)
		converged = target > 0 && met.EnergyPerAtomRMSE <= target
	}
	fmt.Printf("wire traffic: %.2f MB, modeled device+comm time: %.3fs, replica drift: %g\n",
		float64(dp.Ring().WireBytes())/(1<<20), dp.ModeledIterationNs()/1e9, dp.ReplicaDrift())
	finish(dp.Model(), testSet, epoch, converged, time.Since(start))
}

func finish(m *deepmd.Model, testSet *dataset.Dataset, epochs int, converged bool, wall time.Duration) {
	met, err := m.Evaluate(testSet, 8)
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	fmt.Printf("\ndone: %d epochs in %.1fs (converged=%v)\n", epochs, wall.Seconds(), converged)
	fmt.Printf("test: E/atom RMSE %.5f eV, E RMSE %.4f eV, F RMSE %.4f eV/Å\n",
		met.EnergyPerAtomRMSE, met.EnergyRMSE, met.ForceRMSE)
}
