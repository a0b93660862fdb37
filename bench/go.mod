module anna/bench

go 1.22

require anna v0.0.0

replace anna => ../
