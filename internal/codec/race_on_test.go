//go:build race

package codec

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of Puts, so pooled planes are reallocated at random
// and allocation-volume bounds do not apply.
const raceEnabled = true
