module coral/bench

go 1.22

require coral v0.0.0

replace coral => ../
