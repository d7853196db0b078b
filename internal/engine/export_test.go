package engine

// unregister removes a controller the test registered, so the test can
// run again in the same process (go test -count=N) without tripping
// Register's duplicate panic.
func unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
}
