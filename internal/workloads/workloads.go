// Package workloads provides the eight DNN benchmarks of the paper's
// Table 1 (three CNNs, two RNNs, two recommendation models, one
// attention model), the scale levels used to run them, and the
// DeepSniffer-style random network generator used to train the workload
// mapping predictor (§4.6).
package workloads

import (
	"fmt"
	"sort"

	"mnpusim/internal/model"
)

// Scale selects how large the workload shapes (and the matching hardware
// presets) are. The paper's native configurations take up to 24 hours
// per run; ScaleTiny and ScaleSmall shrink every dimension while
// preserving each workload's compute/memory character, so the full mix
// sweeps complete in seconds.
type Scale int

const (
	// ScaleTiny is for unit tests and benchmarks.
	ScaleTiny Scale = iota
	// ScaleSmall is for examples and quick CLI runs.
	ScaleSmall
	// ScalePaper matches the shapes of the published models.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Div returns the dimension divisor applied to channel/hidden sizes.
func (s Scale) Div() int {
	switch s {
	case ScaleTiny:
		return 8
	case ScaleSmall:
		return 4
	default:
		return 1
	}
}

// SpatialDiv returns the divisor applied to image height/width. It is
// deliberately gentler than Div: a conv's arithmetic intensity is
// governed by its smallest GEMM dimension, and shrinking the spatial
// extent (the im2col M dimension) too far would turn the paper's
// compute-intensive CNNs memory-bound. The hardware presets shrink
// per-core bandwidth by the same factor as the PE array so the machine
// balance (MACs per byte) stays at the paper's value.
func (s Scale) SpatialDiv() int {
	switch s {
	case ScaleTiny, ScaleSmall:
		return 2
	default:
		return 1
	}
}

// Class matches Table 1's workload type column.
type Class string

const (
	CNN            Class = "CNN"
	RNN            Class = "RNN"
	Recommendation Class = "Recommendation"
	AttentionClass Class = "Attention"
)

// Workload pairs a benchmark's short name (as used throughout the
// paper's figures) with its network.
type Workload struct {
	// Short is the figure label: res, yt, alex, sfrnn, ds2, dlrm,
	// ncf, gpt2.
	Short string
	// Full is the model name from Table 1.
	Full  string
	Class Class
	Net   model.Network
}

// table maps each short name to its constructor, in the paper's Table 1
// order. Names, All and ByName are all driven from it, so ByName builds
// only the network it returns.
var table = []struct {
	short string
	build func(Scale) Workload
}{
	{"res", ResNet50},
	{"yt", YoloTiny},
	{"alex", AlexNet},
	{"sfrnn", SelfishRNN},
	{"ds2", DeepSpeech2},
	{"dlrm", DLRM},
	{"ncf", NCF},
	{"gpt2", GPT2},
}

// Names lists the eight short names in the paper's Table 1 order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.short
	}
	return out
}

// All returns the eight benchmarks at the given scale, in Table 1 order.
func All(s Scale) []Workload {
	out := make([]Workload, len(table))
	for i, e := range table {
		out[i] = e.build(s)
	}
	return out
}

// ByName returns the named benchmark at the given scale.
func ByName(short string, s Scale) (Workload, error) {
	for _, e := range table {
		if e.short == short {
			return e.build(s), nil
		}
	}
	valid := Names()
	sort.Strings(valid)
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (have %v)", short, valid)
}

// MustByName is ByName, panicking on error.
func MustByName(short string, s Scale) Workload {
	w, err := ByName(short, s)
	if err != nil {
		panic(err)
	}
	return w
}

// sc divides v by div, clamping to min.
func sc(v, div, min int) int {
	v /= div
	if v < min {
		return min
	}
	return v
}
