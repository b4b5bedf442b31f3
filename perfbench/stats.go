package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile estimates the p-th percentile of xs with the Harrell-Davis
// estimator: a weighted mean of all order statistics, with weights from
// the Beta((n+1)p, (n+1)(1-p)) distribution. On the 11 to 54 samples a
// run has, it moves far less from run to run than a single order
// statistic does.
func quantile(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	q := float64(p) / 100
	a, b := q*(n+1), (1-q)*(n+1)
	var v, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		v += (cur - prev) * x
		prev = cur
	}
	return v
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n, p int) int {
	return n - max((p*n+99)/100, 1)
}

// tailPercentile is the highest percentile from p50 up that still has
// at least minBeyond of n samples beyond it, or 50 when there are too
// few samples for any.
func tailPercentile(n, minBeyond int) int {
	for p := 99; p > 50; p-- {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, betai).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d, c = 1+aa*d, 1+aa/c
		d, c = 1/nonzero(d, tiny), nonzero(c, tiny)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d, c = 1+aa*d, 1+aa/c
		d, c = 1/nonzero(d, tiny), nonzero(c, tiny)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

func nonzero(v, tiny float64) float64 {
	if math.Abs(v) < tiny {
		return tiny
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
