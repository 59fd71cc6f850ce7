package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs() {
		a, err := buildCorpus(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildCorpus(sp, 7)
		c, _ := buildCorpus(sp, 8)
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 gave %s then %s", sp.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", sp.name)
		}
		if len(a.label) != a.set.Len() {
			t.Errorf("%s: %d labels for %d sequences", sp.name, len(a.label), a.set.Len())
		}
	}
}

func TestKeepNearestFamilies(t *testing.T) {
	sp, _ := specByName("bd_families")
	c, err := buildCorpus(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	size := map[int]int{}
	for _, l := range c.label {
		size[l]++
	}
	families, singletons := 0, 0
	for _, n := range size {
		if n > 1 {
			families++
		} else {
			singletons++
		}
	}
	if families != sp.keep.n || singletons != sp.params.Singletons {
		t.Errorf("kept %d families and %d singletons, want %d and %d", families, singletons, sp.keep.n, sp.params.Singletons)
	}
}

func TestPlanArrival(t *testing.T) {
	// Three families of 10, 5 and 14 interleaved with two singletons.
	var label []int
	add := func(l, n int) {
		for i := 0; i < n; i++ {
			label = append(label, l)
		}
	}
	add(0, 10)
	add(7, 1)
	add(1, 5)
	add(2, 14)
	add(9, 1)
	a := planArrival(label)

	// Seed: the first 60 %, rounded up, of every label in corpus order.
	wantSeed := []int{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 16, 17, 18, 19, 20, 21, 22, 23, 24, 30}
	if !reflect.DeepEqual(a.seed, wantSeed) {
		t.Errorf("seed = %v\nwant   %v", a.seed, wantSeed)
	}
	// Rest: 4 + 2 + 5 = 11 sequences, family by family, as waves of 4 and 7
	// (a 5-wave would leave a remnant of 2, too short to stand alone).
	wantWaves := [][]int{{6, 7, 8, 9}, {14, 15, 25, 26, 27, 28, 29}}
	if !reflect.DeepEqual(a.waves, wantWaves) {
		t.Errorf("waves = %v, want %v", a.waves, wantWaves)
	}
	if b := planArrival(label); !reflect.DeepEqual(a, b) {
		t.Error("planArrival gave two different plans for one corpus")
	}
}

func TestServicePlanCoversTheCorpusOnce(t *testing.T) {
	sp, _ := specByName("service_waves")
	c, err := buildCorpus(sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := planArrival(c.label)
	ids := append([]int(nil), a.seed...)
	for i, w := range a.waves {
		if last := i == len(a.waves)-1; len(w) < 4 || (len(w) > 6 && !last) || len(w) > 9 {
			t.Errorf("wave %d has %d sequences", i, len(w))
		}
		ids = append(ids, w...)
	}
	if n, _ := highPercentile(len(a.waves)); n < 75 {
		t.Errorf("%d waves cannot carry a 75th percentile", len(a.waves))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("arrival covers sequence IDs %v...: not each exactly once", ids[:i+1])
		}
	}
	final, err := inArrivalOrder(c, a)
	if err != nil {
		t.Fatal(err)
	}
	if final.set.Len() != c.set.Len() || final.set.Get(0).Name != c.set.Get(a.seed[0]).Name ||
		final.label[len(a.seed)] != c.label[a.waves[0][0]] {
		t.Error("arrival-ordered corpus does not follow the arrival")
	}
}
