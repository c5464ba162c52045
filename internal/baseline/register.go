package baseline

import "mpcdist/internal/mpc"

// Payload-codec registrations for the baseline algorithms' job types (see
// internal/core/register.go for the convention). Their chain tuples and
// answers travel as core's payloads.
func init() {
	mpc.RegisterPayload("baseline.pairJob", (*pairJob)(nil))
	mpc.RegisterPayload("baseline.lcsJob", (*lcsJob)(nil))
}
