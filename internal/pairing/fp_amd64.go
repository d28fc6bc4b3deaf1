package pairing

// mulMont8 sets z = x·y·2⁻⁵¹² mod q, the n = 8 case of
// fpContext.mulGeneric, for any odd q < 2⁵¹² with x, y < q and inv0 =
// −q⁻¹ mod 2⁶⁴. It reads all of x and y before it writes z, so z may alias
// either. It runs MULX, ADCX and ADOX: call it only when hasMulxAdx holds.
//
//go:noescape
func mulMont8(z, x, y, q *fpElement, inv0 uint64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// hasMulxAdx reports whether CPUID leaf 7 lists BMI2 (EBX bit 8, for MULX)
// and ADX (EBX bit 19, for ADCX and ADOX), which mulMont8 needs.
var hasMulxAdx = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()
