module peering/bench

go 1.24

require peering v0.0.0

replace peering => ../
