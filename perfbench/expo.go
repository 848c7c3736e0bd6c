package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// expo is one parsed Prometheus text exposition: series key (the metric
// name plus its label set exactly as exposed) → value.
type expo map[string]float64

// scrape snapshots the process registry every instrumented layer of the
// program records into.
func scrape() expo {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		panic("perfbench: registry exposition into a buffer failed: " + err.Error())
	}
	e, err := parseExpo(buf.String())
	if err != nil {
		panic("perfbench: registry exposition does not parse: " + err.Error())
	}
	return e
}

// parseExpo parses the sample lines of a text exposition; comments and
// blank lines are skipped.
func parseExpo(text string) (expo, error) {
	e := expo{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("sample line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %v", line, err)
		}
		e[line[:cut]] = v
	}
	return e, sc.Err()
}

// seriesName splits a series key into its metric name and label body
// (without braces).
func seriesName(key string) (name, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// diff returns after − before for every series of after. Counters and
// histogram series only grow, so the difference is the activity between
// the two scrapes. A histogram bucket absent from before lay above that
// scrape's highest occupied bucket, so its cumulative count then was the
// series' _count.
func diff(before, after expo) expo {
	d := expo{}
	for k, v := range after {
		b, ok := before[k]
		if !ok {
			if name, labels := seriesName(k); strings.HasSuffix(name, "_bucket") {
				b = before[countKey(strings.TrimSuffix(name, "_bucket"), labels)]
			}
		}
		d[k] = v - b
	}
	return d
}

// add accumulates o into e.
func (e expo) add(o expo) {
	for k, v := range o {
		e[k] += v
	}
}

// countKey is the _count series key matching a bucket's label body.
func countKey(family, bucketLabels string) string {
	var keep []string
	for _, l := range splitLabels(bucketLabels) {
		if !strings.HasPrefix(l, "le=") {
			keep = append(keep, l)
		}
	}
	if len(keep) == 0 {
		return family + "_count"
	}
	return family + "_count{" + strings.Join(keep, ",") + "}"
}

// splitLabels splits a label body into its name="value" pairs, skipping
// commas inside quoted values.
func splitLabels(body string) []string {
	var out []string
	inQuote, start := false, 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// sum totals every series of the family whose label body contains all of
// the given label pairs (e.g. `route="rebuild"`).
func (e expo) sum(family string, match ...string) float64 {
	t := 0.0
	for k, v := range e {
		name, labels := seriesName(k)
		if name != family {
			continue
		}
		ok := true
		for _, m := range match {
			if !slices.Contains(splitLabels(labels), m) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of the histogram series of family
// that carries every match pair, interpolating linearly inside the
// power-of-two bucket that holds the rank. The match must select a single
// series: the exposition omits buckets above a series' highest occupied
// one, so cumulative counts of different series do not add bucket by
// bucket. It returns 0 when the series recorded nothing.
func (e expo) histQuantile(family string, q float64, match ...string) float64 {
	type bucket struct{ le, cum float64 }
	byLE := map[float64]float64{}
	for k, v := range e {
		name, labels := seriesName(k)
		if name != family+"_bucket" {
			continue
		}
		le, ok := math.Inf(1), true
		for _, l := range splitLabels(labels) {
			if s, found := strings.CutPrefix(l, "le="); found {
				le, _ = strconv.ParseFloat(strings.Trim(s, `"`), 64) // "+Inf" parses too
			}
		}
		for _, m := range match {
			if !slices.Contains(splitLabels(labels), m) {
				ok = false
			}
		}
		if ok {
			byLE[le] += v
		}
	}
	bs := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		bs = append(bs, bucket{le, c})
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lo // beyond the last finite bound: report that bound
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
