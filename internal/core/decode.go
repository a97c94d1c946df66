package core

import (
	"fmt"

	"utcq/internal/par"
	"utcq/internal/traj"
)

// DecodeAll fully decompresses the archive over a bounded worker pool
// (Options.Parallelism workers).  D values and probabilities are quantized
// within their error bounds; everything else is lossless.  Output order is
// deterministic and the earliest failing trajectory's error is returned.
func (a *Archive) DecodeAll() ([]*traj.Uncertain, error) {
	out := make([]*traj.Uncertain, len(a.Trajs))
	err := par.Do(par.Workers(a.Opts.Parallelism), len(a.Trajs), func(j int) error {
		u, err := a.DecodeTrajectory(j)
		if err != nil {
			return fmt.Errorf("core: trajectory %d: %w", j, err)
		}
		out[j] = u
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeTrajectory fully decompresses one trajectory: its timestamps, then
// every instance in one InstReader pass (E and T' from Next, D from
// NextD, SV and p from the record).  A record whose timestamps or T' set
// flags do not number NumPoints is an error.
func (a *Archive) DecodeTrajectory(j int) (*traj.Uncertain, error) {
	rec := a.Trajs[j]
	r, err := rec.Reader(0)
	if err != nil {
		return nil, err
	}
	T, err := decodeT(r, a.Opts.Ts)
	if err != nil {
		return nil, err
	}
	if len(T) != rec.NumPoints {
		return nil, fmt.Errorf("core: decoded %d of %d timestamps", len(T), rec.NumPoints)
	}
	u := &traj.Uncertain{T: T, Instances: make([]traj.Instance, len(rec.Insts))}
	var c InstReader
	for orig := range u.Instances {
		if err := c.Reset(a, j, orig); err != nil {
			return nil, err
		}
		ins := &u.Instances[orig]
		ins.SV, ins.P = c.SV(), c.P()
		ins.E, ins.TF = make([]uint16, c.n), make([]bool, c.n)
		points := 0
		for i := range ins.E {
			if ins.E[i], ins.TF[i], err = c.Next(); err != nil {
				return nil, err
			}
			if ins.TF[i] {
				points++
			}
		}
		if points != rec.NumPoints {
			return nil, fmt.Errorf("core: instance %d has %d of %d points", orig, points, rec.NumPoints)
		}
		ins.D = make([]float64, rec.NumPoints)
		for k := range ins.D {
			if ins.D[k], err = c.NextD(); err != nil {
				return nil, err
			}
		}
	}
	return u, nil
}
