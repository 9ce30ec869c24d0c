package obs

import "testing"

func TestRunQoRStaging(t *testing.T) {
	takeRunQoR() // drain any prior state
	AddRunQoR(nil)
	AddRunQoR(map[string]float64{"qor.a": 1})
	AddRunQoR(map[string]float64{"qor.b": 2, "qor.a": 3}) // later write wins
	m := takeRunQoR()
	if len(m) != 2 || m["qor.a"] != 3 || m["qor.b"] != 2 {
		t.Errorf("staged QoR = %+v", m)
	}
	if takeRunQoR() != nil {
		t.Error("take must drain the staging area")
	}
}
