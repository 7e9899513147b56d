package checkpoint

// CountPlans counts the chains planned for replay into n until the
// returned stop is called.
func CountPlans(n *int) (stop func()) {
	onPlan = func() { *n++ }
	return func() { onPlan = nil }
}
