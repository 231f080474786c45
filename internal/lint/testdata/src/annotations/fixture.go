// Package fixture is an annotations-analyzer golden fixture.
package fixture

//gsb:hotpath
func marked() {}

type state struct {
	N int `json:"n"`
}

func reasons() {
	_ = state{} //gsb:alloc-ok a considered waiver with a reason
	_ = 1       /* want `//gsb:alloc-ok needs a reason` */           //gsb:alloc-ok
	_ = 2       /* want `unknown //gsb: verb "nondeterminism_ok"` */ //gsb:nondeterminism_ok typoed verb
	_ = 3       /* want `unknown //gsb: verb "allocok"` */           //gsb:allocok another typo
	_ = 4       //gsb:statslookup-ok a second suppressor with a reason
}
