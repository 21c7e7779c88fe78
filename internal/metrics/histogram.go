package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Histogram bins float64 observations into equal-width buckets over
// [Lo, Hi); values outside the range clamp into the edge buckets. It
// renders as an ASCII bar chart — used to show detection-latency
// distributions next to the Fig. 5a means.
type Histogram struct {
	Lo, Hi float64
	counts []int
}

// NewHistogram creates a histogram with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid histogram [%g, %g) x%d", lo, hi, buckets))
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int, buckets)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	i := int(float64(len(h.counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// AddSample folds a whole sample in.
func (h *Histogram) AddSample(s *Sample) {
	for _, v := range s.values {
		h.Add(v)
	}
}

// Render draws the histogram with the given maximum bar width.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	peak := 0
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	step := (h.Hi - h.Lo) / float64(len(h.counts))
	for i, c := range h.counts {
		bar := 0
		if peak > 0 {
			bar = int(math.Round(float64(width) * float64(c) / float64(peak)))
		}
		fmt.Fprintf(&b, "[%8.0f,%8.0f) %4d %s\n",
			h.Lo+float64(i)*step, h.Lo+float64(i+1)*step, c, strings.Repeat("#", bar))
	}
	return b.String()
}
