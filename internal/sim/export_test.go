package sim

// Snap exposes snap to the external tests, which run the wakeup and
// broadcast schemes that package sim cannot import.
var Snap = snap
